package core

import (
	"fmt"
	"math/rand"
	"testing"

	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/workloads"
)

// countCoverage tallies the set shapes the incremental-count test reached,
// so the test can require the ones the counter is easiest to get wrong.
type countCoverage struct {
	lateEntry  int // sets seeded with the entry after other blocks
	firstFit   int // first-fit pops of a block that broke the limit
	selfLoop   int // member edges from a block to itself
	toEntry    int // member edges back to the entry
	terminal   int // terminal member edges
	termToMemb int // terminal member edges to a non-entry member
}

// TestTargetCountMatchesRecount drives the growing set through random add
// and pop sequences over every function of the 18 workloads and of
// generated programs, with and without the task-size heuristic, and after
// every step compares the set's incremental target count with a full
// recount by countTargets, the function that builds target lists.
func TestTargetCountMatchesRecount(t *testing.T) {
	var cov countCoverage
	// No workload or generated program has a block that branches to
	// itself, so one hand-built program adds the self-loop.
	if err := countsHold(selfLoopProg(), &cov); err != nil {
		t.Fatalf("self-loop program: %v", err)
	}
	for _, w := range workloads.All() {
		if err := countsHold(w.Build(), &cov); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	n := 48
	if testing.Short() {
		n = 12
	}
	points := make([]gen.Params, n)
	for i := range points {
		points[i] = gen.CorpusParams(1, i)
	}
	if err := gen.Check(points, func(prog *ir.Program) error {
		return countsHold(prog, &cov)
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", cov)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"late-entry seeds", cov.lateEntry},
		{"first-fit pops", cov.firstFit},
		{"self-loops", cov.selfLoop},
		{"edges back to the entry", cov.toEntry},
		{"terminal edges", cov.terminal},
		{"terminal edges between members", cov.termToMemb},
	} {
		if c.n == 0 {
			t.Errorf("no step reached %s", c.what)
		}
	}
}

// selfLoopProg counts in a block that branches back to itself.
func selfLoopProg() *ir.Program {
	b := ir.NewBuilder("selfloop")
	f := b.Func("main")
	f.Block("entry").MovI(ir.R(3), 0).MovI(ir.R(4), 10).Goto("spin")
	f.Block("spin").AddI(ir.R(3), ir.R(3), 1).Slt(ir.R(5), ir.R(3), ir.R(4)).Br(ir.R(5), "spin", "exit")
	f.Block("exit").Store(ir.R(3), ir.R(0), int64(ir.DataBase)).Halt()
	f.End()
	return b.Build()
}

// countsHold prepares prog both ways and checks the count on random
// sequences over each function.
func countsHold(prog *ir.Program, cov *countCoverage) error {
	for _, ts := range []bool{false, true} {
		opts := Options{TaskSize: ts}.withDefaults()
		p, err := Prepare(prog, opts)
		if err != nil {
			return err
		}
		s := newSelector(p, opts)
		rng := rand.New(rand.NewSource(1))
		for i := range p.Prog.Fns {
			for seq := 0; seq < 8; seq++ {
				if err := countSequence(s, ir.FnID(i), rng, cov); err != nil {
					return fmt.Errorf("ts=%v fn %d sequence %d: %w", ts, i, seq, err)
				}
			}
		}
	}
	return nil
}

// countSequence seeds the set at a random entry, sometimes data-dependence
// style with the entry added after other blocks, then takes 40 random
// steps: adding a successor of a member (terminal edges included), adding
// any block, a first-fit add that is popped again when it breaks the limit,
// or popping the member added last.
func countSequence(s *selector, fn ir.FnID, rng *rand.Rand, cov *countCoverage) error {
	flows := s.flows[fn]
	S := &s.set
	entry := ir.BlockID(rng.Intn(len(flows)))
	seed := []ir.BlockID{entry}
	if rng.Intn(2) == 0 && len(flows) > 1 {
		seed = seed[:0]
		for _, b := range rng.Perm(len(flows))[:1+rng.Intn(min(len(flows)-1, 4))] {
			if ir.BlockID(b) != entry {
				seed = append(seed, ir.BlockID(b))
			}
		}
		seed = append(seed, entry)
		cov.lateEntry++
	}
	S.fill(flows, entry, seed)
	if err := checkCount(s, cov); err != nil {
		return fmt.Errorf("seed %v entry b%d: %w", seed, entry, err)
	}
	for step := 0; step < 40; step++ {
		var op string
		switch k := rng.Intn(8); {
		case k < 4:
			op = "add successor"
			b := S.order[rng.Intn(len(S.order))]
			fl := &flows[b]
			if fl.n == 0 {
				continue
			}
			ch := fl.succ[rng.Intn(fl.n)]
			if S.in[ch] {
				continue
			}
			S.add(ch)
		case k < 5:
			op = "add any"
			b := ir.BlockID(rng.Intn(len(flows)))
			if S.in[b] {
				continue
			}
			S.add(b)
		case k < 7:
			op = "first-fit add"
			b := S.order[rng.Intn(len(S.order))]
			fl := &flows[b]
			if fl.n == 0 || S.in[fl.succ[0]] {
				continue
			}
			S.add(fl.succ[0])
			if err := checkCount(s, cov); err != nil {
				return fmt.Errorf("step %d (%s b%d): %w", step, op, fl.succ[0], err)
			}
			if S.targets <= s.opts.MaxTargets {
				continue
			}
			S.pop()
			cov.firstFit++
		default:
			op = "pop"
			if len(S.order) == 1 {
				continue
			}
			S.pop()
		}
		if err := checkCount(s, cov); err != nil {
			return fmt.Errorf("step %d (%s), set %v entry b%d: %w", step, op, S.order, entry, err)
		}
	}
	return nil
}

// checkCount compares the set's count with a recount and tallies the
// shapes of the set's member edges.
func checkCount(s *selector, cov *countCoverage) error {
	S := &s.set
	var list []Target
	if want := s.countTargets(&list); S.targets != want {
		return fmt.Errorf("incremental count %d, recount %d (%v)", S.targets, want, list)
	}
	for _, b := range S.order {
		fl := &S.flows[b]
		for k, ch := range fl.succ[:fl.n] {
			switch {
			case ch == b:
				cov.selfLoop++
			case ch == S.entry && S.in[ch]:
				cov.toEntry++
			}
			if fl.term[k] {
				cov.terminal++
				if S.in[ch] && ch != S.entry {
					cov.termToMemb++
				}
			}
		}
	}
	return nil
}
