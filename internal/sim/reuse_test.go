package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/obs"
	_ "multiscalar/internal/policy" // registers the corpus arms' policies
	"multiscalar/internal/workloads"
)

// The tests below pin machine reuse (DESIGN.md §6.8): a machine that ran
// anything before must simulate exactly as a new one, and a Result must
// keep nothing of its machine alive.

// corpusArms are the six selection arms of the corpus sweep.
var corpusArms = []core.Options{
	{Heuristic: core.BasicBlock},
	{Heuristic: core.ControlFlow},
	{Heuristic: core.DataDependence},
	{Heuristic: core.ControlFlow, Policy: "greedy"},
	{Heuristic: core.ControlFlow, Policy: "roundrobin"},
	{Heuristic: core.ControlFlow, Policy: "knapsack"},
}

// sameAsFresh runs part on cfg on the reused machine and on a new one, and
// fails unless their Results are equal.
func sameAsFresh(reused *simulator, part *core.Partition, cfg Config) error {
	got, err := reused.simulate(part, cfg, nil)
	if err != nil {
		return fmt.Errorf("reused machine: %w", err)
	}
	want, err := new(simulator).simulate(part, cfg, nil)
	if err != nil {
		return fmt.Errorf("new machine: %w", err)
	}
	if *got != *want {
		return fmt.Errorf("reused machine's Result differs from a new one's:\n got %+v\nwant %+v", *got, *want)
	}
	return nil
}

// TestReusedMachineMatchesFresh runs the 216 golden configs (18 workloads ×
// bb/cf/dd × 4/8 PUs × out-of-order/in-order) on one machine in a seeded
// shuffled order, so the machine changes program, PU count and pipeline
// between runs. Every canonical Result must equal a new machine's. Between
// them go runs that stop part-way at their MaxInstrs budget, and observed
// runs whose event streams must equal a new machine's.
func TestReusedMachineMatchesFresh(t *testing.T) {
	type point struct {
		name string
		part *core.Partition
		cfg  Config
	}
	var points []point
	for _, w := range workloads.All() {
		for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
			part, err := core.Select(w.Build(), core.Options{Heuristic: h})
			if err != nil {
				t.Fatal(err)
			}
			for _, pus := range []int{4, 8} {
				for _, inorder := range []bool{false, true} {
					cfg := DefaultConfig(pus)
					cfg.InOrder = inorder
					points = append(points, point{fmt.Sprintf("%s/%v/%dPU/inorder=%v", w.Name, h, pus, inorder), part, cfg})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })

	reused := new(simulator)
	for i, p := range points {
		got, err := reused.simulate(p.part, p.cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want, err := new(simulator).simulate(p.part, p.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canonicalResult(t, got), canonicalResult(t, want); !bytes.Equal(g, w) {
			t.Fatalf("run %d, %s: reused machine\n%s\nnew machine\n%s", i, p.name, g, w)
		}
		switch i % 24 {
		case 7:
			cut := p.cfg
			cut.MaxInstrs = got.Instrs / 2
			if _, err := reused.simulate(p.part, cut, nil); !errors.Is(err, emu.ErrLimit) {
				t.Fatalf("run %d, %s with half its instructions: err = %v, want the budget error", i, p.name, err)
			}
		case 19:
			var g, w obs.Collector
			if _, err := reused.simulate(p.part, p.cfg, &g); err != nil {
				t.Fatal(err)
			}
			if _, err := new(simulator).simulate(p.part, p.cfg, &w); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g.Events, w.Events) {
				t.Fatalf("run %d, %s observed: reused machine emitted %d events, a new one %d, and they differ",
					i, p.name, len(g.Events), len(w.Events))
			}
		}
	}
}

// TestReusedMachineMatchesFreshOnCorpus checks the same property on
// generated programs: each seed-1 corpus point's six corpus arms run on 4
// and 8 PUs, in order and out of order, on one machine that first ran
// another program, and every Result must equal a new machine's.
func TestReusedMachineMatchesFreshOnCorpus(t *testing.T) {
	var points []gen.Params
	for i := 0; i < 16; i++ {
		points = append(points, gen.CorpusParams(1, i))
	}
	dirty := partition(t, memDepProg(t), core.DataDependence)
	err := gen.Check(points, func(prog *ir.Program) error {
		reused := new(simulator)
		cfg := DefaultConfig(8)
		cfg.SyncTable = false
		if _, err := reused.simulate(dirty, cfg, nil); err != nil {
			return err
		}
		for _, opts := range corpusArms {
			part, err := core.Select(prog, opts)
			if err != nil {
				return err
			}
			for _, pus := range []int{8, 4} {
				for _, inorder := range []bool{true, false} {
					cfg := DefaultConfig(pus)
					cfg.InOrder = inorder
					if err := sameAsFresh(reused, part, cfg); err != nil {
						return fmt.Errorf("%+v, %d PUs, inorder=%v: %w", opts, pus, inorder, err)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResultsPinNothing holds 48 Results, as a memo does, and checks that
// they keep less than 1 MB alive after a collection. A Result that pointed
// into its machine would keep the machine's caches and predictors alive,
// about 1.8 MB each.
func TestResultsPinNothing(t *testing.T) {
	part := partition(t, vecSum(t, 200), core.ControlFlow)
	cfg := DefaultConfig(8)
	runSim(t, part, cfg) // leaves a machine warm for this run idle
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	held := make([]*Result, 48)
	for i := range held {
		held[i] = runSim(t, part, cfg)
	}
	if grown := heap() - base; grown > 1<<20 {
		t.Errorf("48 held Results keep %.1f MB alive, want under 1 MB", float64(grown)/(1<<20))
	}
	runtime.KeepAlive(held)
}

// TestWarmRunAllocs gates allocations per run once a machine is warm: the
// Result the caller keeps and the sorted addresses of the final memory
// checksum, with room for two more. It holds on a long run (tomcatv, cf, 8
// PUs), when runs alternate between 4 and 8 PUs, and on the small programs
// of the corpus, where a new machine's set-up used to dwarf the run.
// Counting allocations does not depend on host speed; the collector is off
// so that none of its own allocations land in the count.
//
// AllocsPerRun counts at GOMAXPROCS 1, where at most one machine stays idle,
// so the test runs at 1 throughout: each case's first run trims the idle
// list to one machine, which AllocsPerRun's own warm-up run then warms.
func TestWarmRunAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := workloads.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	tomcatv := partition(t, w.Build(), core.ControlFlow)
	var corpus []*core.Partition
	for i := 0; i < 16; i++ {
		prog := gen.Generate(gen.CorpusParams(1, i))
		for _, opts := range corpusArms {
			part, err := core.Select(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, part)
		}
	}
	for _, c := range []struct {
		name  string
		parts []*core.Partition
		pus   []int
	}{
		{"tomcatv/8PU", []*core.Partition{tomcatv}, []int{8}},
		{"tomcatv/4PU-8PU", []*core.Partition{tomcatv}, []int{4, 8}},
		{"corpus/4PU", corpus, []int{4}},
	} {
		run := func() {
			for _, part := range c.parts {
				for _, pus := range c.pus {
					runSim(t, part, DefaultConfig(pus))
				}
			}
		}
		run()
		allocs := testing.AllocsPerRun(3, run)
		runs := len(c.parts) * len(c.pus)
		if per := allocs / float64(runs); per > 4 {
			t.Errorf("%s: %.1f allocations per warm run, want at most 4", c.name, per)
		}
	}
}

// TestConcurrentRuns simulates from more goroutines than there are idle
// machines, so machines move between goroutines and some are dropped;
// `go test -race` checks the hand-offs. Every Result must equal the serial
// one.
func TestConcurrentRuns(t *testing.T) {
	parts := []*core.Partition{
		partition(t, vecSum(t, 100), core.ControlFlow),
		partition(t, memDepProg(t), core.DataDependence),
		partition(t, countedLoop(t, 300), core.BasicBlock),
	}
	cfgs := []Config{DefaultConfig(4), DefaultConfig(8)}
	want := make([]*Result, len(parts)*len(cfgs))
	for i := range want {
		want[i] = runSim(t, parts[i/len(cfgs)], cfgs[i%len(cfgs)])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*runtime.GOMAXPROCS(0))
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				i := (g + k) % len(want)
				res, err := Run(parts[i/len(cfgs)], cfgs[i%len(cfgs)])
				if err == nil && *res != *want[i] {
					err = fmt.Errorf("goroutine %d, run %d: Result differs from the serial one", g, k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
