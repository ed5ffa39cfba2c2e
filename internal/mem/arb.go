package mem

import "slices"

// ARB models the Address Resolution Buffer: the structure that buffers
// speculative memory state per task stage and detects memory dependence
// violations (a later task loaded a word an earlier task then stored).
//
// The simulator drives it in task (program) order: for every load of the
// task being simulated it asks which earlier in-flight task, if any, stores
// to the same word and at what cycle, so the caller can either synchronize
// or flag a violation when the store's cycle is after the load's. Stores of
// retired tasks leave the ARB as their words commit.
//
// Each live task owns a stage listing the words it touched and the words it
// stored, so retiring or squashing a task costs what that task did, not what
// the ARB holds. Stages are recycled, so a steady run allocates nothing.
type ARB struct {
	entriesPerPU int
	hitLat       int

	// stores[addr] = per-word store record list in the order recorded (task
	// order, as the simulator drives it). A list its stores have all left
	// stays in the map, so the word's next store reuses its capacity.
	stores map[uint64][]storeRec

	// stages holds the live tasks' stages in task order; free lists the
	// retired and squashed ones for reuse.
	stages []*stage
	free   *stage

	// Violations and Overflows count events for reporting.
	Violations, Overflows uint64
}

type storeRec struct {
	task  int
	cycle int64
}

// stage is one task's ARB state.
type stage struct {
	task int
	// words holds the distinct words the task touched, for capacity
	// (overflow stall) modeling; true once the task stored to the word.
	words map[uint64]bool
	// stored lists the words the task stored to, each once.
	stored []uint64
	// next links the free list.
	next *stage
}

func (st *stage) touched(w uint64) bool {
	_, ok := st.words[w]
	return ok
}

// NewARB builds an ARB with the paper's parameters: 32 entries per PU,
// two-cycle hit.
func NewARB(entriesPerPU int) *ARB {
	if entriesPerPU == 0 {
		entriesPerPU = 32
	}
	return &ARB{
		entriesPerPU: entriesPerPU,
		hitLat:       2,
		stores:       make(map[uint64][]storeRec),
	}
}

// HitLatency returns the ARB probe latency (2 cycles per the paper).
func (a *ARB) HitLatency() int { return a.hitLat }

func word(addr uint64) uint64 { return addr &^ 7 }

// find returns the index of task's stage in a.stages, or -1 when the task
// holds no state. The search starts at the newest task, the usual caller.
func (a *ARB) find(task int) int {
	for i := len(a.stages) - 1; i >= 0 && a.stages[i].task >= task; i-- {
		if a.stages[i].task == task {
			return i
		}
	}
	return -1
}

// open returns task's stage, opening one in task order if it has none.
func (a *ARB) open(task int) *stage {
	if i := a.find(task); i >= 0 {
		return a.stages[i]
	}
	st := a.free
	if st != nil {
		a.free = st.next
	} else {
		st = &stage{words: make(map[uint64]bool)}
	}
	st.task = task
	i := len(a.stages)
	for i > 0 && a.stages[i-1].task > task {
		i--
	}
	a.stages = slices.Insert(a.stages, i, st)
	return st
}

// RecordStore registers a speculative store by task seq at the given cycle.
func (a *ARB) RecordStore(task int, addr uint64, cycle int64) {
	w := word(addr)
	a.stores[w] = append(a.stores[w], storeRec{task: task, cycle: cycle})
	if st := a.open(task); !st.words[w] {
		st.words[w] = true
		st.stored = append(st.stored, w)
	}
}

// RecordLoad registers a speculative load (loads occupy ARB entries too, so
// violations can be detected).
func (a *ARB) RecordLoad(task int, addr uint64) {
	st := a.open(task)
	if w := word(addr); !st.touched(w) {
		st.words[w] = false
	}
}

// LastStoreBefore returns the cycle at which the latest store to addr by a
// task earlier than `task` executes, and whether one exists among the
// still-active (unretired) tasks. The simulator compares that cycle with the
// load's cycle: a producing store that executes later than the load is a
// dependence violation (or a synchronization point when the sync table
// predicts it).
func (a *ARB) LastStoreBefore(task int, addr uint64) (cycle int64, ok bool) {
	recs := a.stores[word(addr)]
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].task < task {
			return recs[i].cycle, true
		}
	}
	return 0, false
}

// NoteViolation bumps the violation counter.
func (a *ARB) NoteViolation() { a.Violations++ }

// Words returns how many distinct speculative words task holds;
// WouldOverflow refuses a new word once this reaches the per-PU entry budget.
func (a *ARB) Words(task int) int {
	if i := a.find(task); i >= 0 {
		return len(a.stages[i].words)
	}
	return 0
}

// WouldOverflow reports whether adding addr for task would exceed its ARB
// stage capacity, counting the event when it does.
func (a *ARB) WouldOverflow(task int, addr uint64) bool {
	n := 0
	if i := a.find(task); i >= 0 {
		st := a.stages[i]
		if st.touched(word(addr)) {
			return false
		}
		n = len(st.words)
	}
	if n >= a.entriesPerPU {
		a.Overflows++
		return true
	}
	return false
}

// Retire drops all state belonging to tasks with sequence <= task (their
// speculative words have committed to architectural memory).
func (a *ARB) Retire(task int) {
	n := 0
	for ; n < len(a.stages) && a.stages[n].task <= task; n++ {
		a.recycle(a.stages[n], func(r storeRec) bool { return r.task <= task })
	}
	a.stages = slices.Delete(a.stages, 0, n)
}

// SquashTask removes the speculative state of one squashed task (it will
// re-execute and re-insert).
func (a *ARB) SquashTask(task int) {
	if i := a.find(task); i >= 0 {
		a.recycle(a.stages[i], func(r storeRec) bool { return r.task == task })
		a.stages = slices.Delete(a.stages, i, i+1)
	}
}

// recycle deletes the records gone reports from every word st stored to,
// and returns st to the free list.
func (a *ARB) recycle(st *stage, gone func(storeRec) bool) {
	for _, w := range st.stored {
		a.stores[w] = slices.DeleteFunc(a.stores[w], gone)
	}
	clear(st.words)
	st.stored = st.stored[:0]
	st.next, a.free = a.free, st
}

// SyncTable is the 256-entry memory dependence synchronization table: loads
// whose address (instruction identity) caused squashes are predicted to
// depend on an earlier store and are made to wait instead of speculate.
type SyncTable struct {
	capacity int
	entries  map[uint64]uint8 // load identity -> 2-bit confidence
	order    []uint64         // FIFO for eviction

	// Hits counts loads that synchronized instead of speculating.
	Hits uint64
}

// NewSyncTable builds the table with the paper's 256 entries.
func NewSyncTable(capacity int) *SyncTable {
	if capacity == 0 {
		capacity = 256
	}
	return &SyncTable{capacity: capacity, entries: make(map[uint64]uint8)}
}

// Insert records that the load identified by id caused a memory dependence
// violation.
func (s *SyncTable) Insert(id uint64) {
	if c, ok := s.entries[id]; ok {
		if c < 3 {
			s.entries[id] = c + 1
		}
		return
	}
	if len(s.entries) >= s.capacity {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, oldest)
	}
	s.entries[id] = 2
	s.order = append(s.order, id)
}

// ShouldSync reports whether the load identified by id is predicted to
// conflict and must synchronize with the producing store.
func (s *SyncTable) ShouldSync(id uint64) bool {
	c, ok := s.entries[id]
	if ok && c >= 2 {
		s.Hits++
		return true
	}
	return false
}

// Weaken lowers confidence for id after a synchronization that turned out to
// be unnecessary (no earlier store materialized).
func (s *SyncTable) Weaken(id uint64) {
	if c, ok := s.entries[id]; ok && c > 0 {
		s.entries[id] = c - 1
	}
}

// Len returns the number of live entries.
func (s *SyncTable) Len() int { return len(s.entries) }
