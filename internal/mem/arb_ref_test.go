package mem

import (
	"math/rand"
	"testing"
)

// refARB is the map-based ARB the stage-based one replaced, kept as a
// reference model: every stored word lives in one map, and retire and
// squash walk all of it.
type refARB struct {
	entriesPerPU          int
	stores                map[uint64][]storeRec
	perTask               map[int]map[uint64]bool
	Violations, Overflows uint64
}

// arbWords returns how many distinct speculative words task holds in a;
// WouldOverflow refuses a new word once this reaches the per-PU entry budget.
func arbWords(a *ARB, task int) int {
	if i := a.find(task); i >= 0 {
		return len(a.stages[i].words)
	}
	return 0
}

func newRefARB(entriesPerPU int) *refARB {
	return &refARB{
		entriesPerPU: entriesPerPU,
		stores:       make(map[uint64][]storeRec),
		perTask:      make(map[int]map[uint64]bool),
	}
}

func (a *refARB) RecordStore(task int, addr uint64, cycle int64) {
	w := word(addr)
	a.stores[w] = append(a.stores[w], storeRec{task: task, cycle: cycle})
	a.touch(task, w)
}

func (a *refARB) RecordLoad(task int, addr uint64) { a.touch(task, word(addr)) }

func (a *refARB) touch(task int, w uint64) {
	m := a.perTask[task]
	if m == nil {
		m = make(map[uint64]bool)
		a.perTask[task] = m
	}
	m[w] = true
}

func (a *refARB) LastStoreBefore(task int, addr uint64) (int64, bool) {
	recs := a.stores[word(addr)]
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].task < task {
			return recs[i].cycle, true
		}
	}
	return 0, false
}

func (a *refARB) NoteViolation() { a.Violations++ }

func (a *refARB) Words(task int) int { return len(a.perTask[task]) }

func (a *refARB) WouldOverflow(task int, addr uint64) bool {
	m := a.perTask[task]
	if m != nil && m[word(addr)] {
		return false
	}
	if len(m) >= a.entriesPerPU {
		a.Overflows++
		return true
	}
	return false
}

func (a *refARB) Retire(task int) {
	for t := range a.perTask {
		if t <= task {
			delete(a.perTask, t)
		}
	}
	a.filter(func(r storeRec) bool { return r.task > task })
}

func (a *refARB) SquashTask(task int) {
	delete(a.perTask, task)
	a.filter(func(r storeRec) bool { return r.task != task })
}

func (a *refARB) filter(keep func(storeRec) bool) {
	for w, recs := range a.stores {
		kept := recs[:0]
		for _, r := range recs {
			if keep(r) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(a.stores, w)
		} else {
			a.stores[w] = kept
		}
	}
}

// TestARBMatchesReference drives the ARB and the reference model with the
// same seeded random operations and compares every answer and counter. The
// operations span a sliding window of live tasks, touch them out of order,
// retire past task numbers that hold no state, and squash tasks in the
// middle of the window.
func TestARBMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		matchReference(t, seed, NewARB)
	}
}

// TestResetARBMatchesReference runs the same operations on one ARB, reset
// before each seed. Every seed stops with live stages and store records, so
// each Reset must leave the ARB equal to a fresh one.
func TestResetARBMatchesReference(t *testing.T) {
	a := NewARB(1)
	for seed := int64(1); seed <= 40; seed++ {
		matchReference(t, seed, func(capacity int) *ARB {
			a.Reset(capacity)
			return a
		})
	}
}

// matchReference drives an ARB that arb returns for a capacity, and the
// reference model, with seed's operations.
func matchReference(t *testing.T, seed int64, arb func(capacity int) *ARB) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	capacity := 1 + rng.Intn(6)
	got, want := arb(capacity), newRefARB(capacity)
	retired := -1
	task := func() int { return retired - 1 + rng.Intn(10) }
	addr := func() uint64 { return uint64(rng.Intn(24))*8 + uint64(rng.Intn(8)) }
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(16); {
		case op < 4:
			k, a, c := task(), addr(), rng.Int63n(1000)
			got.RecordStore(k, a, c)
			want.RecordStore(k, a, c)
		case op < 7:
			k, a := task(), addr()
			got.RecordLoad(k, a)
			want.RecordLoad(k, a)
		case op < 10:
			k, a := task(), addr()
			gc, gok := got.LastStoreBefore(k, a)
			wc, wok := want.LastStoreBefore(k, a)
			if gc != wc || gok != wok {
				t.Fatalf("seed %d step %d: LastStoreBefore(%d, %#x) = %d, %v; reference %d, %v", seed, step, k, a, gc, gok, wc, wok)
			}
		case op < 12:
			k, a := task(), addr()
			if g, w := got.WouldOverflow(k, a), want.WouldOverflow(k, a); g != w {
				t.Fatalf("seed %d step %d: WouldOverflow(%d, %#x) = %v; reference %v", seed, step, k, a, g, w)
			}
		case op < 13:
			k := task()
			if g, w := arbWords(got, k), want.Words(k); g != w {
				t.Fatalf("seed %d step %d: Words(%d) = %d; reference %d", seed, step, k, g, w)
			}
		case op < 14:
			retired += 1 + rng.Intn(3) // sometimes skips task numbers
			got.Retire(retired)
			want.Retire(retired)
		case op < 15:
			k := retired + 1 + rng.Intn(8) // often a task in the middle
			got.SquashTask(k)
			want.SquashTask(k)
		default:
			got.NoteViolation()
			want.NoteViolation()
		}
		if got.Violations != want.Violations || got.Overflows != want.Overflows {
			t.Fatalf("seed %d step %d: counters %d/%d; reference %d/%d", seed, step,
				got.Violations, got.Overflows, want.Violations, want.Overflows)
		}
	}
}
