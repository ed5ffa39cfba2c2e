package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which it
// sorts in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs (mean of the two middle values for an
// even count), sorting xs in place. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// rate is instrs per microsecond of d: millions of instructions per second.
func rate(instrs uint64, d time.Duration) float64 {
	return float64(instrs) / (float64(d.Nanoseconds()) / 1e3)
}

// maxRSSMB is the process's peak resident set size in MiB, set-up included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapRetainedMB forces a collection and returns the live heap in MiB. The
// caller keeps the engine and server it wants counted reachable across the
// call.
func heapRetainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// controlWords sizes the host-speed control's table: 16 MiB, larger than
// the private caches of any current server core.
const controlWords = 1 << 21

var controlSink uint64

// hostControl times a fixed chain of dependent random reads over a 16 MiB
// table, calling no repository code, and returns milliseconds. Run before
// and after a workload, it shows how fast the host was at the time; it
// scales no metric.
func hostControl() float64 {
	tab := make([]uint64, controlWords)
	for i := range tab {
		tab[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	t0 := time.Now()
	x := uint64(1)
	for i := uint64(0); i < 1<<20; i++ {
		x += tab[(x^i)&(controlWords-1)]
	}
	d := time.Since(t0)
	controlSink = x
	return float64(d.Nanoseconds()) / 1e6
}

// memDelta is the allocation activity between two runtime.MemStats reads.
type memDelta struct {
	allocMB  float64
	mallocs  uint64
	gcCycles uint32
	pauseMS  float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := readMem()
	return memDelta{
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		pauseMS:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}
