package dist

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

// benchJobs builds n distinct jobs (distinct cache keys) over the real
// workload set.
func benchJobs(n int) []grid.Job {
	names := []string{"compress", "go", "ijpeg", "tomcatv", "swim", "fpppp"}
	jobs := make([]grid.Job, n)
	for i := range jobs {
		cfg := sim.DefaultConfig(2 + i%8)
		jobs[i] = grid.Job{
			Workload: names[i%len(names)],
			Select:   core.Options{Heuristic: core.Heuristic(i % 3)},
			Config:   cfg,
		}
	}
	return jobs
}

// simCost is the fake per-job simulation cost: high enough that fan-out
// matters, low enough that the benchmark stays fast.
const simCost = 5 * time.Millisecond

// BenchmarkFleet measures end-to-end distributed throughput through the
// real wire protocol — leader HTTP surface, worker pulls and reports — with
// a fixed-cost fake simulation. The workers=0 case is the
// single-process baseline; the ratio of jobs/s against it is the
// distributed speedup (protocol overhead included), which CI records next
// to the grid benchmarks.
func BenchmarkFleet(b *testing.B) {
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(simCost)
		return &sim.Result{IPC: float64(cfg.NumPUs), Cycles: 100, Instrs: 100}, nil
	})
	b.Cleanup(restore)
	jobs := benchJobs(48)

	for _, workers := range []int{0, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchOneRun(b, jobs, workers)
			}
			b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// benchOneRun executes one cold distributed pass over jobs with the given
// number of remote workers (0 = no scheduler at all, plain engine).
func benchOneRun(b *testing.B, jobs []grid.Job, workers int) {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if workers == 0 {
		eng := grid.New(grid.Options{Workers: 2})
		if err := grid.RunAll(ctx, len(jobs), func(i int) error {
			_, err := eng.RunCtx(ctx, jobs[i])
			return err
		}); err != nil {
			b.Fatal(err)
		}
		return
	}

	sched := NewScheduler(SchedOptions{})
	leader := NewLeader(sched, LeaderOptions{PollWait: 20 * time.Millisecond})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	eng := grid.New(grid.Options{Workers: 2, Dispatcher: sched})
	var localDone sync.WaitGroup
	localDone.Add(1)
	go func() {
		defer localDone.Done()
		sched.RunLocal(ctx, 2, eng.ComputeCtx)
	}()
	workerErrs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		w, err := NewWorker(WorkerOptions{
			Leader:       ts.URL,
			Engine:       grid.New(grid.Options{Workers: 2}),
			Concurrency:  2,
			PollInterval: time.Millisecond,
			Logger:       log.New(io.Discard, "", 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		go func() { workerErrs <- w.Run(ctx) }()
	}

	if err := grid.RunAll(ctx, len(jobs), func(i int) error {
		_, err := eng.RunCtx(ctx, jobs[i])
		return err
	}); err != nil {
		b.Fatal(err)
	}
	sched.Close()
	localDone.Wait()
	for i := 0; i < workers; i++ {
		if err := <-workerErrs; err != nil {
			b.Fatalf("worker exit: %v", err)
		}
	}
}
