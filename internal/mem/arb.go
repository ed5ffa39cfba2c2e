package mem

import (
	"slices"

	"multiscalar/internal/paged"
)

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
// Each live task owns a stage listing the words it touched, in address
// order, so retiring or squashing a task costs what that task did, not what
// the ARB holds. A word's stores are found through a table of head records
// with emu.Memory's page shape (paged.Table). Stages, store records and
// pages are recycled, and Reset keeps every array's capacity, so a warm ARB
// allocates nothing.
type ARB struct {
	entriesPerPU int
	hitLat       int

	// Store records live in one arena, recs, each word's linked newest
	// first from heads, which maps a word number to its newest record.
	// Record 0 is never used, so a zero head or link ends a list. freeRec
	// heads the list of recycled records, linked through prev.
	heads   paged.Table[int32]
	recs    []storeRec
	freeRec int32

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
	prev  int32 // the word's next older record, or the next free one; 0 ends
}

// stage is one task's ARB state.
type stage struct {
	task int
	// words lists the distinct words the task touched, for capacity
	// (overflow stall) modeling, as ascending word-aligned addresses; bit 0
	// of an entry is set once the task stored to the word.
	words []uint64
	// next links the free list.
	next *stage
}

// stored marks a words entry whose word the task stored to.
const stored = 1

// index returns the position of word w in st.words, or where it would be
// inserted, and whether it is there.
func (st *stage) index(w uint64) (int, bool) {
	i, j := 0, len(st.words)
	for i < j {
		h := int(uint(i+j) >> 1)
		if st.words[h]&^7 < w {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(st.words) && st.words[i]&^7 == w
}

// touch adds word w to st's words, with the stored bit when mark is stored.
func (st *stage) touch(w, mark uint64) {
	i, ok := st.index(w)
	if ok {
		st.words[i] |= mark
		return
	}
	st.words = append(st.words, 0)
	copy(st.words[i+1:], st.words[i:])
	st.words[i] = w | mark
}

// NewARB builds an ARB with the paper's parameters: 32 entries per PU,
// two-cycle hit.
func NewARB(entriesPerPU int) *ARB {
	a := new(ARB)
	a.Reset(entriesPerPU)
	return a
}

// Reset drops every stage and store record and zeroes the counters, leaving
// the ARB equal to NewARB(entriesPerPU) but with its arrays, pages and
// stages kept for reuse.
func (a *ARB) Reset(entriesPerPU int) {
	if entriesPerPU == 0 {
		entriesPerPU = 32
	}
	a.entriesPerPU, a.hitLat = entriesPerPU, 2
	for _, st := range a.stages {
		a.release(st)
	}
	a.stages = a.stages[:0]
	a.heads.Reset()
	a.recs, a.freeRec = append(a.recs[:0], storeRec{}), 0
	a.Violations, a.Overflows = 0, 0
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
		st = new(stage)
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
	head := a.heads.Ref(addr >> 3)
	r := a.freeRec
	if r != 0 {
		a.freeRec = a.recs[r].prev
	} else {
		r = int32(len(a.recs))
		a.recs = append(a.recs, storeRec{})
	}
	a.recs[r] = storeRec{task: task, cycle: cycle, prev: *head}
	*head = r
	a.open(task).touch(word(addr), stored)
}

// RecordLoad registers a speculative load (loads occupy ARB entries too, so
// violations can be detected).
func (a *ARB) RecordLoad(task int, addr uint64) {
	a.open(task).touch(word(addr), 0)
}

// LastStoreBefore returns the cycle at which the latest store to addr by a
// task earlier than `task` executes, and whether one exists among the
// still-active (unretired) tasks. The simulator compares that cycle with the
// load's cycle: a producing store that executes later than the load is a
// dependence violation (or a synchronization point when the sync table
// predicts it).
func (a *ARB) LastStoreBefore(task int, addr uint64) (cycle int64, ok bool) {
	for r := a.heads.At(addr >> 3); r != 0; r = a.recs[r].prev {
		if a.recs[r].task < task {
			return a.recs[r].cycle, true
		}
	}
	return 0, false
}

// NoteViolation bumps the violation counter.
func (a *ARB) NoteViolation() { a.Violations++ }

// WouldOverflow reports whether adding addr for task would exceed its ARB
// stage capacity, counting the event when it does.
func (a *ARB) WouldOverflow(task int, addr uint64) bool {
	n := 0
	if i := a.find(task); i >= 0 {
		st := a.stages[i]
		if _, ok := st.index(word(addr)); ok {
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
		a.recycle(a.stages[n], func(t int) bool { return t <= task })
	}
	a.stages = slices.Delete(a.stages, 0, n)
}

// SquashTask removes the speculative state of one squashed task (it will
// re-execute and re-insert).
func (a *ARB) SquashTask(task int) {
	if i := a.find(task); i >= 0 {
		a.recycle(a.stages[i], func(t int) bool { return t == task })
		a.stages = slices.Delete(a.stages, i, i+1)
	}
}

// recycle frees the records gone reports, by their task, from every word st
// stored to, and returns st to the free list.
func (a *ARB) recycle(st *stage, gone func(task int) bool) {
	for _, e := range st.words {
		if e&stored == 0 {
			continue
		}
		link := a.heads.Ref(e >> 3)
		for r := *link; r != 0; r = *link {
			rec := &a.recs[r]
			if gone(rec.task) {
				*link, rec.prev, a.freeRec = rec.prev, a.freeRec, r
			} else {
				link = &rec.prev
			}
		}
	}
	a.release(st)
}

// release empties st and returns it to the free list.
func (a *ARB) release(st *stage) {
	st.words = st.words[:0]
	st.next, a.free = a.free, st
}

// SyncTable is the 256-entry memory dependence synchronization table: loads
// whose address (instruction identity) caused squashes are predicted to
// depend on an earlier store and are made to wait instead of speculate.
type SyncTable struct {
	capacity int
	// ids and conf hold each entry's load identity and 2-bit confidence.
	// Entries fill the arrays in insertion order; once capacity are live, a
	// new entry replaces the one at oldest, which then moves on: a ring
	// that evicts first-in, first-out.
	ids    []uint64
	conf   []uint8
	oldest int

	// Hits counts loads that synchronized instead of speculating.
	Hits uint64
}

// NewSyncTable builds the table with the paper's 256 entries.
func NewSyncTable(capacity int) *SyncTable {
	s := new(SyncTable)
	s.Reset(capacity)
	return s
}

// Reset empties the table and zeroes its counter, leaving it equal to
// NewSyncTable(capacity) with its storage kept for reuse.
func (s *SyncTable) Reset(capacity int) {
	if capacity == 0 {
		capacity = 256
	}
	s.capacity, s.ids, s.conf, s.oldest, s.Hits = capacity, s.ids[:0], s.conf[:0], 0, 0
}

// lookup returns the index of id's entry, or -1.
func (s *SyncTable) lookup(id uint64) int {
	for i, x := range s.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// Insert records that the load identified by id caused a memory dependence
// violation.
func (s *SyncTable) Insert(id uint64) {
	if i := s.lookup(id); i >= 0 {
		if s.conf[i] < 3 {
			s.conf[i]++
		}
		return
	}
	if len(s.ids) < s.capacity {
		s.ids, s.conf = append(s.ids, id), append(s.conf, 2)
		return
	}
	s.ids[s.oldest], s.conf[s.oldest] = id, 2
	s.oldest = (s.oldest + 1) % len(s.ids)
}

// ShouldSync reports whether the load identified by id is predicted to
// conflict and must synchronize with the producing store.
func (s *SyncTable) ShouldSync(id uint64) bool {
	if i := s.lookup(id); i >= 0 && s.conf[i] >= 2 {
		s.Hits++
		return true
	}
	return false
}

// Weaken lowers confidence for id after a synchronization that turned out to
// be unnecessary (no earlier store materialized).
func (s *SyncTable) Weaken(id uint64) {
	if i := s.lookup(id); i >= 0 && s.conf[i] > 0 {
		s.conf[i]--
	}
}

// Len returns the number of live entries.
func (s *SyncTable) Len() int { return len(s.ids) }
