package dist

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http/httptest"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// traceHarness is a leader (scheduler + HTTP surface, no local loop) plus
// nWorkers HTTP workers, each carrying its own tracer as a separate process
// would. Returns the leader tracer, the leader engine, and a shutdown func.
func traceHarness(t *testing.T, nWorkers int) (*span.Tracer, *grid.Engine, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	tr := span.New(span.Options{Process: "leader", MaxSpansPerTrace: 4096})
	sched := NewScheduler(SchedOptions{Tracer: tr})
	leader := NewLeader(sched, LeaderOptions{PollWait: 50 * time.Millisecond, Tracer: tr})
	ts := httptest.NewServer(leader.Handler())
	eng := grid.New(grid.Options{Workers: 2, Dispatcher: sched})

	workerErrs := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w, err := NewWorker(WorkerOptions{
			Leader:       ts.URL,
			Engine:       grid.New(grid.Options{Workers: 2}),
			Concurrency:  2,
			PollInterval: 2 * time.Millisecond,
			Logger:       log.New(io.Discard, "", 0),
			Tracer:       span.New(span.Options{Process: "unregistered"}),
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { workerErrs <- w.Run(ctx) }()
	}
	shutdown := func() {
		sched.Close()
		for i := 0; i < nWorkers; i++ {
			if err := <-workerErrs; err != nil {
				t.Errorf("worker %d exited with %v, want clean close", i, err)
			}
		}
		cancel()
		ts.Close()
	}
	return tr, eng, shutdown
}

// TestTraceSpansThreeProcesses: one traced sweep against a leader and two
// remote workers yields ONE trace whose spans carry at least three distinct
// process names (leader + both workers) and whose parent links all resolve —
// the cross-process stitching the wire protocol exists to provide.
func TestTraceSpansThreeProcesses(t *testing.T) {
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(10 * time.Millisecond)
		return &sim.Result{IPC: float64(cfg.NumPUs)}, nil
	})
	t.Cleanup(restore)

	tr, eng, shutdown := traceHarness(t, 2)

	var jobs []grid.Job
	for _, wl := range []string{"compress", "go", "tomcatv"} {
		for _, pus := range []int{2, 4, 6, 8} {
			for _, h := range []core.Heuristic{core.BasicBlock, core.ControlFlow} {
				jobs = append(jobs, grid.Job{
					Workload: wl,
					Select:   core.Options{Heuristic: h},
					Config:   sim.DefaultConfig(pus),
				})
			}
		}
	}

	ctx, root := tr.StartRoot(context.Background(), "sweep")
	if err := grid.RunAll(ctx, len(jobs), func(i int) error {
		_, err := eng.RunCtx(ctx, jobs[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	root.End(nil)
	shutdown()

	td := tr.Recorder().Get(root.TraceID())
	if td == nil {
		t.Fatal("sweep trace not recorded")
	}
	if td.Errored {
		t.Errorf("clean sweep recorded as errored")
	}

	procs := map[string]bool{}
	ids := map[span.SpanID]bool{td.Root.SpanID: true}
	for _, s := range td.Spans {
		procs[s.Process] = true
		ids[s.SpanID] = true
	}
	if len(procs) < 3 || !procs["leader"] {
		t.Errorf("trace covers processes %v, want leader plus two workers", procs)
	}
	byName := map[string]int{}
	for _, s := range td.Spans {
		byName[s.Name]++
		if s.Parent == "" {
			if s.SpanID != td.Root.SpanID {
				t.Errorf("span %s/%s has no parent and is not the root", s.Name, s.SpanID)
			}
			continue
		}
		if !ids[s.Parent] {
			t.Errorf("span %s/%s parent %s not in trace", s.Name, s.SpanID, s.Parent)
		}
	}
	for _, want := range []string{"grid.run", "dist.dispatch", "worker.pull", "worker.exec", "grid.sim-exec"} {
		if byName[want] == 0 {
			t.Errorf("no %s span in trace; got %v", want, byName)
		}
	}
	// Every job dispatched remotely (no local loop runs), so the worker-side
	// execution count must match the dispatch count.
	if byName["worker.exec"] != byName["dist.dispatch"] {
		t.Errorf("worker.exec spans %d != dist.dispatch spans %d",
			byName["worker.exec"], byName["dist.dispatch"])
	}
}

// TestTraceErroredJobRetained: a job whose simulation fails must surface as
// an errored trace — error status propagated from the worker's exec span all
// the way up — and the recorder must retain it for /debug/traces?status=error.
func TestTraceErroredJobRetained(t *testing.T) {
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		return nil, errors.New("injected fault")
	})
	t.Cleanup(restore)

	tr, eng, shutdown := traceHarness(t, 1)

	job := grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)}
	ctx, root := tr.StartRoot(context.Background(), "doomed")
	_, err := eng.RunCtx(ctx, job)
	if err == nil {
		t.Fatal("injected fault did not propagate")
	}
	root.End(err)
	shutdown()

	td := tr.Recorder().Get(root.TraceID())
	if td == nil {
		t.Fatal("errored trace not recorded")
	}
	if !td.Errored {
		t.Error("trace with failing job not marked errored")
	}
	erroredSpan := false
	for _, s := range td.Spans {
		if s.Name == "worker.exec" && s.Status == span.StatusError {
			erroredSpan = true
		}
	}
	if !erroredSpan {
		t.Error("worker.exec span did not carry error status across the wire")
	}
	listed := tr.Recorder().List(span.Filter{Status: span.StatusError})
	found := false
	for _, s := range listed {
		if s.TraceID == td.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("errored trace %s not retained in status=error listing", td.TraceID)
	}
}
