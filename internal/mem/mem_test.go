package mem

import (
	"math/rand"
	"slices"
	"testing"
)

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
	// After a reset the table evicts first-in, first-out again, lap after
	// lap of its ring: of ids 10..16 in a 3-entry table, 14..16 remain.
	s.Reset(3)
	for id := uint64(10); id <= 16; id++ {
		s.Insert(id)
	}
	for id := uint64(10); id <= 16; id++ {
		if got, want := s.ShouldSync(id), id >= 14; got != want {
			t.Errorf("after reset: id %d present = %v, want %v", id, got, want)
		}
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

// TestCacheResetMatchesFresh reuses one cache across shapes and run lengths:
// short runs leave few filled ways (cleared one by one), long ones fill more
// than an eighth of the array (cleared whole). After each reset the cache
// must answer every lookup as a new one does and end in the same state.
func TestCacheResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reused := NewCache("t", 1<<10, 2, 32, 1)
	for run := 0; run < 60; run++ {
		size := 1 << (7 + rng.Intn(8)) // 128 B .. 16 KB
		ways := 1 << rng.Intn(3)
		if size < ways*32 {
			size = ways * 32
		}
		reused.reset(size, ways, 32, 1)
		fresh := NewCache("t", size, ways, 32, 1)
		span := uint64(size) * uint64(1+rng.Intn(4))
		for i, n := 0, rng.Intn(2*size/32); i < n; i++ {
			addr := rng.Uint64() % span
			_, got := reused.Lookup(addr)
			if _, want := fresh.Lookup(addr); got != want {
				t.Fatalf("run %d (%d B, %d ways): lookup %d of %#x: miss=%v, fresh cache %v", run, size, ways, i, addr, got, want)
			}
		}
		if !slices.Equal(reused.tags, fresh.tags) || !slices.Equal(reused.lru, fresh.lru) ||
			reused.clock != fresh.clock || reused.Accesses != fresh.Accesses || reused.Misses != fresh.Misses {
			t.Fatalf("run %d (%d B, %d ways): reused cache state differs from a fresh one", run, size, ways)
		}
	}
}

// TestHierarchyResetAlternatingPUs resets one hierarchy between the 4- and
// 8-PU shapes: the L1s change size, the L2 keeps its own.
func TestHierarchyResetAlternatingPUs(t *testing.T) {
	h := NewHierarchy(Config{NumPUs: 8})
	for i, pus := range []int{4, 8, 4, 4, 8} {
		h.DataAccess(uint64(i) * 0x1000)
		h.Reset(Config{NumPUs: pus})
		fresh := NewHierarchy(Config{NumPUs: pus})
		for _, c := range [][2]*Cache{{h.L1I, fresh.L1I}, {h.L1D, fresh.L1D}, {h.TaskCache, fresh.TaskCache}, {h.L2, fresh.L2}} {
			if c[0].sets != c[1].sets || c[0].ways != c[1].ways || !slices.Equal(c[0].tags, c[1].tags) || c[0].Accesses != 0 {
				t.Fatalf("%d PUs: %s differs from a fresh cache (%d sets, fresh %d)", pus, c[0].name, c[0].sets, c[1].sets)
			}
		}
	}
}
