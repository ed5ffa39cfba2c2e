package mem

import "testing"

// BenchmarkCacheLookup probes an L1-sized cache with a strided sweep twice
// its size, so lookups mix hits, misses and LRU replacement.
func BenchmarkCacheLookup(b *testing.B) {
	c := NewCache("l1d", 64<<10, 2, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i*40) % (128 << 10))
	}
}

// BenchmarkARBTask runs one task's worth of ARB traffic per iteration, as
// the simulator drives it on 8 PUs: eight stores and eight loads, each
// capacity-checked, every load looking up the latest earlier store, then
// the retirement of the task 16 back. Successive tasks sweep 64 KiB, so the
// words span 16 pages of the ARB's head table.
func BenchmarkARBTask(b *testing.B) {
	a := NewARB(32)
	b.ReportAllocs()
	b.ResetTimer()
	for task := 0; task < b.N; task++ {
		for k := 0; k < 8; k++ {
			st := uint64(task*64+k*8) % (64 << 10)
			ld := uint64(task*64+k*8+24) % (64 << 10)
			a.WouldOverflow(task, st)
			a.RecordStore(task, st, int64(task+k))
			a.WouldOverflow(task, ld)
			a.RecordLoad(task, ld)
			a.LastStoreBefore(task, ld)
		}
		a.Retire(task - 16)
	}
}

var hierarchySink *Hierarchy

// BenchmarkNewHierarchy builds the paper's 8-PU memory hierarchy, the part
// of every simulation's setup that does not depend on the program.
func BenchmarkNewHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hierarchySink = NewHierarchy(Config{NumPUs: 8})
	}
}
