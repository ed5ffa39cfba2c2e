package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"multiscalar/internal/cfganal"
	"multiscalar/internal/dataflow"
	"multiscalar/internal/emu"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/workloads"
)

// analysisCounts counts the analyses and profiling runs Prepare pays for.
type analysisCounts struct{ cfg, flow, profile atomic.Int64 }

// countAnalyses routes analyzeCFG, analyzeFlow and runProfile through
// counting wrappers until the test ends. Its callers must not run in
// parallel with other tests of this package.
func countAnalyses(t *testing.T) *analysisCounts {
	t.Helper()
	c := &analysisCounts{}
	cfg, flow, prof := analyzeCFG, analyzeFlow, runProfile
	t.Cleanup(func() { analyzeCFG, analyzeFlow, runProfile = cfg, flow, prof })
	analyzeCFG = func(f *ir.Function) *cfganal.CFG {
		c.cfg.Add(1)
		return cfg(f)
	}
	analyzeFlow = func(g *cfganal.CFG) *dataflow.Facts {
		c.flow.Add(1)
		return flow(g)
	}
	runProfile = func(p *ir.Program, budget uint64) (*emu.Profile, error) {
		c.profile.Add(1)
		return prof(p, budget)
	}
	return c
}

// take returns the counts so far and zeroes them.
func (c *analysisCounts) take() (cfg, flow, profile int64) {
	return c.cfg.Swap(0), c.flow.Swap(0), c.profile.Swap(0)
}

// prepareTestProgs returns the 18 workloads and seed-1 corpus programs 0–7.
func prepareTestProgs() []*ir.Program {
	var progs []*ir.Program
	for _, w := range workloads.All() {
		progs = append(progs, w.Build())
	}
	for i := 0; i < 8; i++ {
		progs = append(progs, gen.Generate(gen.CorpusParams(1, i)))
	}
	return progs
}

// TestPrepareAnalyzesEachFunctionOnce pins the analysis counts of Prepare:
// the CFGs restructuring leaves behind are reused, so Prepare analyzes no
// function beyond what restructuring (and, under the task-size heuristic,
// unrolling) needs, runs one dataflow analysis per function and profiles
// once, or twice when unrolling changed the program.
func TestPrepareAnalyzesEachFunctionOnce(t *testing.T) {
	c := countAnalyses(t)
	for _, prog := range prepareTestProgs() {
		fns := int64(len(prog.Fns))

		p := ir.Clone(prog)
		RestructureLoops(p)
		restructure, _, _ := c.take()
		unrolled := ApplyTaskSize(p, Options{})
		unroll, _, _ := c.take()

		if _, err := Prepare(prog, Options{}); err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		cfg, flow, profile := c.take()
		if cfg != restructure || flow != fns || profile != 1 {
			t.Errorf("%s: Prepare ran %d CFG analyses, %d dataflow analyses and %d profiles; want %d (restructuring's), %d and 1",
				prog.Name, cfg, flow, profile, restructure, fns)
		}

		wantCFG, wantProfile := restructure+unroll, int64(1)
		if unrolled {
			wantCFG, wantProfile = wantCFG+fns, 2
		}
		if _, err := Prepare(prog, Options{TaskSize: true}); err != nil {
			t.Fatalf("%s with task size: %v", prog.Name, err)
		}
		cfg, flow, profile = c.take()
		if cfg != wantCFG || flow != fns || profile != wantProfile {
			t.Errorf("%s with task size: Prepare ran %d CFG analyses, %d dataflow analyses and %d profiles; want %d, %d and %d",
				prog.Name, cfg, flow, profile, wantCFG, fns, wantProfile)
		}
	}
}

// TestPreparedSelectAnalyzesNothing: the per-heuristic step runs no CFG or
// dataflow analysis and no profile, for any heuristic or threshold, with or
// without the task-size heuristic.
func TestPreparedSelectAnalyzesNothing(t *testing.T) {
	c := countAnalyses(t)
	arms := []Options{
		{Heuristic: BasicBlock},
		{Heuristic: ControlFlow},
		{Heuristic: DataDependence},
		{Heuristic: ControlFlow, NoGreedy: true},
		{Heuristic: DataDependence, MaxTargets: 2, CallThresh: 10},
	}
	for _, prog := range prepareTestProgs() {
		for _, taskSize := range []bool{false, true} {
			prep, err := Prepare(prog, Options{TaskSize: taskSize})
			if err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			c.take()
			for _, arm := range arms {
				arm.TaskSize = taskSize
				part, err := prep.Select(arm)
				if err != nil {
					t.Fatalf("%s %+v: %v", prog.Name, arm, err)
				}
				if part.Prog != prep.Prog {
					t.Errorf("%s %+v: the partition does not share the prepared program", prog.Name, arm)
				}
			}
			if cfg, flow, profile := c.take(); cfg+flow+profile != 0 {
				t.Errorf("%s (task size %t): %d selections ran %d CFG analyses, %d dataflow analyses and %d profiles; want none",
					prog.Name, taskSize, len(arms), cfg, flow, profile)
			}
		}
	}
}

// TestPreparedSelectChecksPrepareOptions: a Prepared selects only under
// options that project onto the ones it was prepared with. LoopThresh
// matters only under the task-size heuristic; the selection thresholds and
// the heuristic never do.
func TestPreparedSelectChecksPrepareOptions(t *testing.T) {
	prog := loopProg(t)
	plain, err := Prepare(prog, Options{Heuristic: DataDependence})
	if err != nil {
		t.Fatal(err)
	}
	sized, err := Prepare(prog, Options{TaskSize: true, LoopThresh: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		prep *Prepared
		opts Options
		ok   bool
	}{
		{plain, Options{}, true},
		{plain, Options{Heuristic: ControlFlow, MaxTargets: 2, CallThresh: 5, LoopThresh: 7}, true},
		{plain, Options{ProfileBudget: 50_000_000}, true}, // the default, spelled out
		{plain, Options{ProfileBudget: 1000}, false},
		{plain, Options{TaskSize: true}, false},
		{sized, Options{TaskSize: true, LoopThresh: 20, CallThresh: 5}, true},
		{sized, Options{TaskSize: true}, false}, // LoopThresh defaults to 30
		{sized, Options{LoopThresh: 20}, false},
	} {
		_, err := tc.prep.Select(tc.opts)
		if tc.ok && err != nil {
			t.Errorf("Select(%+v): %v", tc.opts, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "prepared with")) {
			t.Errorf("Select(%+v) = %v, want an error naming the prepare options", tc.opts, err)
		}
	}
}
