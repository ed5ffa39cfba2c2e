package grid

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/gen"
	"multiscalar/internal/sim"
)

// benchJobs is a fixed sub-grid: six representative workloads × the four
// Figure 5 selection variants on the paper's 8-PU machine (24 simulations,
// 18 partitions).
func benchJobs() []Job {
	variants := []core.Options{
		{Heuristic: core.BasicBlock},
		{Heuristic: core.ControlFlow},
		{Heuristic: core.DataDependence},
		{Heuristic: core.DataDependence, TaskSize: true},
	}
	var jobs []Job
	for _, name := range []string{"go", "compress", "ijpeg", "tomcatv", "swim", "fpppp"} {
		for _, opts := range variants {
			jobs = append(jobs, Job{Workload: name, Select: opts, Config: sim.DefaultConfig(8)})
		}
	}
	return jobs
}

func runJobs(b *testing.B, e *Engine, jobs []Job) {
	b.Helper()
	err := RunAll(context.Background(), len(jobs), func(i int) error {
		_, err := e.Run(jobs[i])
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGridParallel runs the sub-grid cold on a fresh engine per
// iteration, once serially (j=1) and once across all cores: the wall-clock
// ratio of the two sub-benchmarks is the engine's parallel speedup (≈ the
// core count, as the jobs are independent and CPU-bound).
func BenchmarkGridParallel(b *testing.B) {
	jobs := benchJobs()
	pool := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pool = append(pool, n)
	}
	for _, workers := range pool {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New(Options{Workers: workers})
				runJobs(b, e, jobs)
			}
			b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkGridWarmCache measures a fully warm disk cache: every job is
// served from content-addressed artifacts with zero simulations.
func BenchmarkGridWarmCache(b *testing.B) {
	jobs := benchJobs()
	dir := b.TempDir()
	runJobs(b, New(Options{CacheDir: dir}), jobs) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{CacheDir: dir})
		runJobs(b, e, jobs)
		if s := e.Stats(); s.Sims != 0 {
			b.Fatalf("warm run simulated %d jobs", s.Sims)
		}
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngineCorpusRound runs one simulate-gen round on a fresh engine:
// seed-1 corpus programs 0–7 under the corpus sweep's six arms on 4
// out-of-order PUs (48 jobs, 8 programs to build and prepare), all submitted
// at once. Program generation, preparation, selection and simulation are all
// inside the timer, as on /v1/simulate's cold path.
func BenchmarkEngineCorpusRound(b *testing.B) {
	var jobs []Job
	for p := 0; p < 8; p++ {
		name := gen.CorpusParams(1, p).Key()
		for _, opts := range corpusArms {
			jobs = append(jobs, Job{Workload: name, Select: opts, Config: sim.DefaultConfig(4)})
		}
	}
	runJobs(b, New(Options{}), jobs) // warm the simulator's machines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJobs(b, New(Options{}), jobs)
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
