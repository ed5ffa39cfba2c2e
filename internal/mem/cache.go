// Package mem models the Multiscalar memory system of the paper's §4.2:
// banked, lockup-free L1 instruction and data caches with per-PU task
// caches, a shared L2, main memory, the Address Resolution Buffer (ARB) that
// detects memory dependence violations, and the 256-entry memory dependence
// synchronization table.
//
// The caches are timing-only (tag arrays with LRU): functional values come
// from the simulator's architectural memory, which is the standard structure
// for timing-directed simulators.
package mem

// Cache is a set-associative, write-allocate, LRU cache tag array.
type Cache struct {
	name      string
	sets      int
	ways      int
	blockBits uint
	hitLat    int
	tags      []uint64 // set-major [set*ways+way], 0 = invalid (tag stores addr|1)
	lru       []uint32 // last-use clock, indexed like tags
	clock     uint32

	// Accesses and Misses count for reporting.
	Accesses, Misses uint64
}

// NewCache builds a cache of size bytes with the given associativity and
// block size (bytes) and hit latency (cycles).
func NewCache(name string, size, ways, blockSize, hitLat int) *Cache {
	sets := size / (ways * blockSize)
	if sets < 1 {
		sets = 1
	}
	bits := uint(0)
	for 1<<bits < blockSize {
		bits++
	}
	c := &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		blockBits: bits,
		hitLat:    hitLat,
		tags:      make([]uint64, sets*ways),
		lru:       make([]uint32, sets*ways),
	}
	return c
}

// Lookup probes the cache for addr, updating LRU and filling on miss. It
// returns the hit latency and whether the access missed (the caller adds the
// lower-level latency on a miss).
func (c *Cache) Lookup(addr uint64) (lat int, miss bool) {
	c.Accesses++
	c.clock++
	block := addr >> c.blockBits
	base := int(block%uint64(c.sets)) * c.ways
	tags, lru := c.tags[base:base+c.ways], c.lru[base:base+c.ways]
	key := block<<1 | 1
	victim := 0
	for w := range tags {
		if tags[w] == key {
			lru[w] = c.clock
			return c.hitLat, false
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	c.Misses++
	tags[victim] = key
	lru[victim] = c.clock
	return c.hitLat, true
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() int { return c.hitLat }

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy bundles the paper's memory hierarchy for one simulated machine
// and returns composite access latencies.
type Hierarchy struct {
	L1I, L1D  *Cache
	TaskCache *Cache
	L2        *Cache
	MemLat    int
	L2Xfer    int // extra cycles for a block transfer from L2
	MemXfer   int // extra cycles for a block transfer from memory
}

// Config mirrors the paper's cache parameters, scaled by PU count.
type Config struct {
	NumPUs int
	// L1Size is per the paper: 64KB at 4 PUs, 128KB at 8 PUs (applies to both
	// I and D caches). Zero selects by NumPUs.
	L1Size    int
	L1Ways    int // default 2
	BlockSize int // default 32
	L2Size    int // default 4MB
	L2Ways    int // default 2
	L2HitLat  int // default 12
	MemLat    int // default 58
}

// NewHierarchy builds the hierarchy from the paper's parameters.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.L1Size == 0 {
		if cfg.NumPUs >= 8 {
			cfg.L1Size = 128 << 10
		} else {
			cfg.L1Size = 64 << 10
		}
	}
	if cfg.L1Ways == 0 {
		cfg.L1Ways = 2
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 32
	}
	if cfg.L2Size == 0 {
		cfg.L2Size = 4 << 20
	}
	if cfg.L2Ways == 0 {
		cfg.L2Ways = 2
	}
	if cfg.L2HitLat == 0 {
		cfg.L2HitLat = 12
	}
	if cfg.MemLat == 0 {
		cfg.MemLat = 58
	}
	return &Hierarchy{
		L1I:       NewCache("l1i", cfg.L1Size, cfg.L1Ways, cfg.BlockSize, 1),
		L1D:       NewCache("l1d", cfg.L1Size, cfg.L1Ways, cfg.BlockSize, 1),
		TaskCache: NewCache("task", 32<<10, 2, cfg.BlockSize, 1),
		L2:        NewCache("l2", cfg.L2Size, cfg.L2Ways, cfg.BlockSize, cfg.L2HitLat),
		MemLat:    cfg.MemLat,
		L2Xfer:    2, // 32-byte block at 16 bytes/cycle
		MemXfer:   4, // 32-byte block at 8 bytes/cycle
	}
}

// InstrFetch returns the latency of fetching the instruction block at addr.
func (h *Hierarchy) InstrFetch(addr uint64) int {
	lat, miss := h.L1I.Lookup(addr)
	if !miss {
		return lat
	}
	return lat + h.lowerLevel(addr)
}

// DataAccess returns the latency of a load/store probe at addr.
func (h *Hierarchy) DataAccess(addr uint64) int {
	lat, miss := h.L1D.Lookup(addr)
	if !miss {
		return lat
	}
	return lat + h.lowerLevel(addr)
}

// TaskFetch returns the latency of reading a task descriptor at addr through
// the task cache.
func (h *Hierarchy) TaskFetch(addr uint64) int {
	lat, miss := h.TaskCache.Lookup(addr)
	if !miss {
		return lat
	}
	return lat + h.lowerLevel(addr)
}

func (h *Hierarchy) lowerLevel(addr uint64) int {
	lat, miss := h.L2.Lookup(addr)
	if !miss {
		return lat + h.L2Xfer
	}
	return lat + h.L2Xfer + h.MemLat + h.MemXfer
}
