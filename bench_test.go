// Benchmark harness: one testing.B target per table and figure in the
// paper's evaluation, plus the ablations DESIGN.md calls out and component
// micro-benchmarks. Each benchmark regenerates its artifact and reports the
// headline numbers as custom metrics.
//
// By default the experiment benchmarks run on a six-benchmark core subset so
// `go test -bench=.` stays fast; pass -full to sweep all 18 workloads (what
// cmd/msreport does).
package multiscalar_test

import (
	"flag"
	"fmt"
	"testing"

	"multiscalar"
	"multiscalar/internal/core"
	"multiscalar/internal/emu"
	"multiscalar/internal/experiment"
	"multiscalar/internal/gen"
	"multiscalar/internal/ir"
	"multiscalar/internal/sim"
	"multiscalar/internal/workloads"
)

var fullSweep = flag.Bool("full", false, "run experiment benchmarks over all 18 workloads")

// coreSubset spans the paper's spectrum: branchy integer (go), hash loop
// with memory dependences (compress), loop-parallel integer (ijpeg), regular
// FP (tomcatv, swim), and giant-basic-block FP (fpppp).
func benchNames() []string {
	if *fullSweep {
		return workloads.Names()
	}
	return []string{"go", "compress", "ijpeg", "tomcatv", "swim", "fpppp"}
}

// geoGain averages the per-suite geometric-mean IPC ratios of a variant over
// basic-block tasks (1.0 = no gain).
func geoGain(cells []experiment.Fig5Cell, v experiment.Variant) float64 {
	sums := experiment.Summarize(cells)
	total, n := 0.0, 0
	for _, s := range sums {
		if s.Variant == v {
			total += s.GeoMean
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return total / float64(n)
}

// BenchmarkFigure5 regenerates one panel of Figure 5 per sub-benchmark:
// {4,8} PUs × {out-of-order, in-order}, reporting the mean IPC gain of the
// control-flow and data-dependence heuristics over basic-block tasks.
func BenchmarkFigure5(b *testing.B) {
	for _, pus := range []int{4, 8} {
		b.Run(fmt.Sprintf("%dPU", pus), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiment.NewRunner()
				cells, err := experiment.Figure5(r, []int{pus}, benchNames())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*(geoGain(cells, experiment.CF)-1), "cf-gain-%")
				b.ReportMetric(100*(geoGain(cells, experiment.DD)-1), "dd-gain-%")
			}
		})
	}
}

// BenchmarkTable1 regenerates Table 1 (task sizes, prediction accuracies,
// window spans on 8 PUs), reporting the mean data-dependence window span.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		rows, err := experiment.Table1(r, benchNames())
		if err != nil {
			b.Fatal(err)
		}
		var span, size float64
		for _, row := range rows {
			span += row.DDWinSpan
			size += row.DDDynInst
		}
		b.ReportMetric(span/float64(len(rows)), "dd-win-span")
		b.ReportMetric(size/float64(len(rows)), "dd-task-size")
	}
}

// BenchmarkAblationTargets sweeps the hardware target limit N.
func BenchmarkAblationTargets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		if _, err := experiment.AblationTargets(r, []string{"go", "compress"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSync compares the synchronization table on/off.
func BenchmarkAblationSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		rows, err := experiment.AblationSync(r, []string{"compress", "wave5"})
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	}
}

// BenchmarkAblationRing sweeps register ring bandwidth.
func BenchmarkAblationRing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		if _, err := experiment.AblationRing(r, []string{"tomcatv"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBanks sweeps the L1 D-cache bank count.
func BenchmarkAblationBanks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		if _, err := experiment.AblationBanks(r, []string{"tomcatv", "wave5"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedy compares greedy vs first-fit feasible-task growth.
func BenchmarkAblationGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		if _, err := experiment.AblationGreedy(r, []string{"go", "ijpeg"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThresh sweeps CALL_THRESH / LOOP_THRESH.
func BenchmarkAblationThresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.NewRunner()
		if _, err := experiment.AblationThresh(r, []string{"compress"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Component micro-benchmarks.

// BenchmarkSelect measures task selection throughput per heuristic on go,
// and on the small generated programs of /v1/simulate's cold path: one
// corpus op selects seed-1 corpus programs 0–15 under each of the corpus
// sweep's six arms (96 Select calls; generation is outside the timer).
// corpus-prepared splits the same work as the grid does it: its prepare
// op runs core.Prepare once per program, and each arm's op selects the 16
// prepared programs under that arm (preparation outside the timer), so the
// seven ops add up to the 96 partitions.
func BenchmarkSelect(b *testing.B) {
	for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
		b.Run(h.String(), func(b *testing.B) {
			w, err := workloads.ByName("go")
			if err != nil {
				b.Fatal(err)
			}
			prog := w.Build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Select(prog, core.Options{Heuristic: h}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("corpus", func(b *testing.B) {
		progs, arms := corpusProgs(), corpusArms()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, prog := range progs {
				for _, arm := range arms {
					if _, err := core.Select(prog, arm.opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("corpus-prepared", func(b *testing.B) {
		progs, arms := corpusProgs(), corpusArms()
		prepare := func(b *testing.B) []*core.Prepared {
			preps := make([]*core.Prepared, len(progs))
			for i, prog := range progs {
				prep, err := core.Prepare(prog, arms[0].opts)
				if err != nil {
					b.Fatal(err)
				}
				preps[i] = prep
			}
			return preps
		}
		b.Run("prepare", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prepare(b)
			}
		})
		preps := prepare(b)
		for _, arm := range arms {
			b.Run(arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, prep := range preps {
						if _, err := prep.Select(arm.opts); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	})
}

// corpusProgs generates seed-1 corpus programs 0–15, the small programs of
// /v1/simulate's cold path.
func corpusProgs() []*ir.Program {
	var progs []*ir.Program
	for i := 0; i < 16; i++ {
		progs = append(progs, gen.Generate(gen.CorpusParams(1, i)))
	}
	return progs
}

// corpusArm is one of the corpus sweep's arms, with its row name.
type corpusArm struct {
	name string
	opts core.Options
}

// corpusArms lists the corpus sweep's six arms: the three heuristics, then
// the three policies on the control-flow heuristic.
func corpusArms() []corpusArm {
	arms := []corpusArm{
		{"bb", core.Options{Heuristic: core.BasicBlock}},
		{"cf", core.Options{Heuristic: core.ControlFlow}},
		{"dd", core.Options{Heuristic: core.DataDependence}},
	}
	for _, p := range []string{"greedy", "roundrobin", "knapsack"} {
		arms = append(arms, corpusArm{p, core.Options{Heuristic: core.ControlFlow, Policy: p}})
	}
	return arms
}

// BenchmarkEmulator measures sequential functional simulation speed.
func BenchmarkEmulator(b *testing.B) {
	w, err := workloads.ByName("tomcatv")
	if err != nil {
		b.Fatal(err)
	}
	prog := w.Build()
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(prog)
		if err := m.Run(5_000_000); err != nil {
			b.Fatal(err)
		}
		instrs = m.Count
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkSimulator measures cycle-level simulation speed. tomcatv runs
// one long program on the paper's 8-PU machine, where the simulation itself
// dominates. corpus simulates seed-1 corpus programs 0–15 under each of the
// corpus sweep's six arms on 4 out-of-order PUs (96 runs per op,
// partitioning outside the timer): small runs, where per-run machine set-up
// weighs most.
func BenchmarkSimulator(b *testing.B) {
	b.Run("tomcatv", func(b *testing.B) {
		w, err := workloads.ByName("tomcatv")
		if err != nil {
			b.Fatal(err)
		}
		part, err := core.Select(w.Build(), core.Options{Heuristic: core.ControlFlow})
		if err != nil {
			b.Fatal(err)
		}
		benchSim(b, []*core.Partition{part}, sim.DefaultConfig(8))
	})
	b.Run("corpus", func(b *testing.B) {
		var parts []*core.Partition
		for _, prog := range corpusProgs() {
			for _, arm := range corpusArms() {
				part, err := core.Select(prog, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				parts = append(parts, part)
			}
		}
		benchSim(b, parts, sim.DefaultConfig(4))
	})
}

// benchSim simulates every partition on cfg once per op and reports
// simulated instructions per second.
func benchSim(b *testing.B, parts []*core.Partition, cfg sim.Config) {
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, part := range parts {
			res, err := sim.Run(part, cfg)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Instrs
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkPublicAPI exercises the facade end to end (what the quickstart
// example does), keeping the documented flow compiling and fast.
func BenchmarkPublicAPI(b *testing.B) {
	w, err := multiscalar.WorkloadByName("ijpeg")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		part, err := multiscalar.Select(w.Build(), multiscalar.Options{Heuristic: multiscalar.ControlFlow})
		if err != nil {
			b.Fatal(err)
		}
		res, err := multiscalar.Simulate(part, multiscalar.DefaultConfig(4))
		if err != nil {
			b.Fatal(err)
		}
		if res.IPC <= 0 {
			b.Fatal("nonpositive IPC")
		}
	}
}
