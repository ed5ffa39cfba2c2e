package mem

import "testing"

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("t", 1<<10, 2, 32, 1)
	if _, miss := c.Lookup(0x100); !miss {
		t.Error("cold access hit")
	}
	if _, miss := c.Lookup(0x100); miss {
		t.Error("second access missed")
	}
	if _, miss := c.Lookup(0x11f); miss {
		t.Error("same 32B block missed")
	}
	if _, miss := c.Lookup(0x120); !miss {
		t.Error("next block hit while cold")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, 2 sets of 32B blocks -> addresses 0, 64, 128 map to set 0.
	c := NewCache("t", 128, 2, 32, 1)
	c.Lookup(0)
	c.Lookup(64)
	c.Lookup(0)   // touch 0 so 64 is LRU
	c.Lookup(128) // evicts 64
	if _, miss := c.Lookup(0); miss {
		t.Error("MRU block evicted")
	}
	if _, miss := c.Lookup(64); !miss {
		t.Error("LRU block survived eviction")
	}
}

// The tag and LRU arrays are one allocation each rather than one per set,
// so a hierarchy that stays reachable gives the garbage collector no
// per-set objects to trace.
func TestNewCacheAllocsIndependentOfSets(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() { NewCache("l2", 4<<20, 2, 32, 12) })
	if allocs > 3 {
		t.Errorf("a 65536-set cache took %.0f allocations, want at most 3", allocs)
	}
}

func TestCacheMissRate(t *testing.T) {
	c := NewCache("t", 1<<10, 2, 32, 1)
	c.Lookup(0)
	c.Lookup(0)
	c.Lookup(0)
	c.Lookup(0)
	if got := c.MissRate(); got != 0.25 {
		t.Errorf("miss rate = %v, want 0.25", got)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(Config{NumPUs: 4})
	// Cold: L1 miss + L2 miss + memory.
	cold := h.DataAccess(0x8000)
	warm := h.DataAccess(0x8000)
	if warm != 1 {
		t.Errorf("warm L1 hit latency = %d, want 1", warm)
	}
	wantCold := 1 + 12 + 2 + 58 + 4
	if cold != wantCold {
		t.Errorf("cold access latency = %d, want %d", cold, wantCold)
	}
	// After eviction-free reuse, an address that misses L1 but hits L2:
	// force an L1-only conflict is fiddly; instead verify the L2 hit path
	// via the instruction side sharing L2.
	l2hit := h.InstrFetch(0x8000) // L1I cold, L2 warm from the data access
	if want := 1 + 12 + 2; l2hit != want {
		t.Errorf("L1 miss/L2 hit latency = %d, want %d", l2hit, want)
	}
}

func TestHierarchySizesScaleWithPUs(t *testing.T) {
	h4 := NewHierarchy(Config{NumPUs: 4})
	h8 := NewHierarchy(Config{NumPUs: 8})
	// 128KB has twice the sets of 64KB at equal ways/blocks.
	if h8.L1D.sets != 2*h4.L1D.sets {
		t.Errorf("8PU L1 sets = %d, 4PU = %d", h8.L1D.sets, h4.L1D.sets)
	}
}

func TestARBStoreLoadOrdering(t *testing.T) {
	a := NewARB(32)
	a.RecordStore(2, 0x100, 50)
	if c, ok := a.LastStoreBefore(5, 0x100); !ok || c != 50 {
		t.Errorf("LastStoreBefore = %d,%v", c, ok)
	}
	if _, ok := a.LastStoreBefore(2, 0x100); ok {
		t.Error("store visible to its own task as an earlier store")
	}
	if _, ok := a.LastStoreBefore(1, 0x100); ok {
		t.Error("store visible to an earlier task")
	}
	// Word granularity: 0x104 is the same 8-byte word.
	if _, ok := a.LastStoreBefore(5, 0x104); !ok {
		t.Error("same-word access not matched")
	}
	if _, ok := a.LastStoreBefore(5, 0x108); ok {
		t.Error("different word matched")
	}
}

func TestARBLatestOfMultipleStores(t *testing.T) {
	a := NewARB(32)
	a.RecordStore(1, 0x100, 10)
	a.RecordStore(3, 0x100, 30)
	if c, _ := a.LastStoreBefore(5, 0x100); c != 30 {
		t.Errorf("latest store cycle = %d, want 30", c)
	}
	if c, _ := a.LastStoreBefore(2, 0x100); c != 10 {
		t.Errorf("store for task 2 = %d, want 10", c)
	}
}

func TestARBSquashRemovesOneTask(t *testing.T) {
	a := NewARB(32)
	a.RecordStore(1, 0x100, 10)
	a.RecordStore(2, 0x200, 20)
	a.SquashTask(2)
	if _, ok := a.LastStoreBefore(5, 0x200); ok {
		t.Error("squashed store survived")
	}
	if _, ok := a.LastStoreBefore(5, 0x100); !ok {
		t.Error("unrelated store removed")
	}
}

func TestARBRetire(t *testing.T) {
	a := NewARB(32)
	a.RecordStore(1, 0x100, 10)
	a.RecordStore(5, 0x200, 50)
	a.Retire(3)
	if _, ok := a.LastStoreBefore(9, 0x100); ok {
		t.Error("retired store survived")
	}
	if _, ok := a.LastStoreBefore(9, 0x200); !ok {
		t.Error("live store dropped")
	}
}

func TestARBCapacity(t *testing.T) {
	a := NewARB(4)
	for i := 0; i < 4; i++ {
		addr := uint64(0x100 + 8*i)
		if a.WouldOverflow(1, addr) {
			t.Fatalf("overflow at %d words", i)
		}
		a.RecordLoad(1, addr)
	}
	if !a.WouldOverflow(1, 0x900) {
		t.Error("no overflow past capacity")
	}
	if a.WouldOverflow(1, 0x100) {
		t.Error("already-resident word counted as overflow")
	}
	if a.Overflows == 0 {
		t.Error("overflow not counted")
	}
	if a.WouldOverflow(2, 0x900) {
		t.Error("capacity shared across tasks; stages are per task")
	}
}

func TestSyncTableConfidence(t *testing.T) {
	s := NewSyncTable(256)
	id := uint64(0x40)
	if s.ShouldSync(id) {
		t.Error("cold entry syncs")
	}
	s.Insert(id)
	if !s.ShouldSync(id) {
		t.Error("inserted entry does not sync")
	}
	s.Weaken(id)
	if s.ShouldSync(id) {
		t.Error("weakened entry still syncs")
	}
	s.Insert(id)
	if !s.ShouldSync(id) {
		t.Error("re-inserted entry does not sync")
	}
}

func TestSyncTableEviction(t *testing.T) {
	s := NewSyncTable(2)
	s.Insert(1)
	s.Insert(2)
	s.Insert(3) // evicts 1 (FIFO)
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	if s.ShouldSync(1) {
		t.Error("evicted entry still present")
	}
	if !s.ShouldSync(3) {
		t.Error("new entry missing")
	}
}

func TestTaskCachePath(t *testing.T) {
	h := NewHierarchy(Config{NumPUs: 4})
	cold := h.TaskFetch(0x1000)
	warm := h.TaskFetch(0x1000)
	if warm != 1 {
		t.Errorf("warm task fetch = %d", warm)
	}
	if cold <= warm {
		t.Errorf("cold task fetch = %d not slower than warm", cold)
	}
}
