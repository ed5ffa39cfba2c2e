package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/mem"
	"multiscalar/internal/sim"
)

// simCall is one sim.Run execution seen by the probe.
type simCall struct {
	start, end    time.Time
	key           string // simKey of the job, to find the request that caused it
	instrs, tasks uint64
}

func (c simCall) dur() time.Duration { return c.end.Sub(c.start) }

// simKey names a simulation by program, selection and PU count: unique
// within a simulate-gen round, where every request is a distinct job.
func simKey(prog string, opts core.Options, pus int) string {
	return fmt.Sprintf("%s|%d|%s|%d", prog, opts.Heuristic, opts.Policy, pus)
}

// simProbe wraps sim.Run in every engine of the process (through
// grid.SetSimForTesting) and records each call. This is how the benchmark
// times the simulator from outside the engine; the cost, two clock reads,
// a short key and an append per call, is a few microseconds against
// milliseconds of simulation.
type simProbe struct {
	mu    sync.Mutex
	calls []simCall
}

func (p *simProbe) run(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
	t0 := time.Now()
	res, err := sim.Run(part, cfg)
	c := simCall{start: t0, end: time.Now(), key: simKey(part.Prog.Name, part.Opts, cfg.NumPUs)}
	if res != nil {
		c.instrs, c.tasks = res.Instrs, res.TaskInstances
	}
	p.mu.Lock()
	p.calls = append(p.calls, c)
	p.mu.Unlock()
	return res, err
}

// take returns and forgets the calls recorded so far.
func (p *simProbe) take() []simCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.calls
	p.calls = nil
	return out
}

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is an index into tracer.spans, or -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer keeps the spans of a traced run in memory; they are written out
// when the run ends. Workloads add spans from one goroutine, after each
// round, so the tracer needs no lock.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// layerTime is the host time spans of one name cover, in total and net of
// their children.
type layerTime struct {
	spans       int
	total, self time.Duration
}

// selfTimes sums, per span name, duration and self time: duration minus the
// part of the span's interval its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		d := s.end.Sub(s.start)
		lt := out[s.name]
		lt.spans++
		lt.total += d
		lt.self += d - covered(s, kids[i])
		out[s.name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var sum time.Duration
	var curS, curE time.Time
	open := false
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s.After(curE):
			sum += curE.Sub(curS)
			curS, curE = s, e
		case e.After(curE):
			curE = e
		}
	}
	if open {
		sum += curE.Sub(curS)
	}
	return sum
}

// write stores the spans as JSON lines, one span per line, with times in
// nanoseconds from the first span's start.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var epoch time.Time
	if len(t.spans) > 0 {
		epoch = t.spans[0].start
	}
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
			i, s.parent, s.name, s.start.Sub(epoch).Nanoseconds(), s.end.Sub(s.start).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var hierarchySink *mem.Hierarchy

// hierarchyCost calls mem.NewHierarchy directly for each PU count and
// returns the median milliseconds and the mean allocations per call.
func hierarchyCost(pus []int) (ms, allocs float64) {
	const reps = 5
	var times []float64
	var mallocs uint64
	for _, n := range pus {
		for i := 0; i < reps; i++ {
			m0 := readMem()
			t0 := time.Now()
			hierarchySink = mem.NewHierarchy(mem.Config{NumPUs: n})
			times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
			mallocs += readMem().Mallocs - m0.Mallocs
		}
	}
	hierarchySink = nil
	return median(times), float64(mallocs) / float64(len(times))
}

var keySink string

// keyCost is the mean microseconds of one grid.Key over jobs.
func keyCost(jobs []grid.Job) float64 {
	const reps = 50
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, j := range jobs {
			keySink = grid.Key(j)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps*len(jobs))
}

// hitCost is the mean microseconds of one memo-hit Engine.RunCtx over jobs,
// which eng must already hold. A job that is not memoized is an error: it
// would time a simulation, not a hit.
func hitCost(eng *grid.Engine, jobs []grid.Job) (float64, error) {
	const reps = 50
	before := eng.Stats()
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, j := range jobs {
			if _, err := eng.RunCtx(ctx, j); err != nil {
				return 0, err
			}
		}
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps*len(jobs))
	if d := eng.Stats().Delta(before); d.Jobs != 0 {
		return 0, fmt.Errorf("grid.hit_us: %d of the workload's jobs were not memoized", d.Jobs)
	}
	return us, nil
}
