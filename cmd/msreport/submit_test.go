package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/grid"
	"multiscalar/internal/jobs"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
)

// newJobServer serves the job surface the way mssrv wires it: one engine
// behind both the manager's executors and the server. wrap, when non-nil,
// sees every request first.
func newJobServer(t *testing.T, wrap func(http.Handler) http.Handler) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	eng := grid.New(grid.Options{Workers: 2})
	mgr, err := jobs.NewManager(jobs.Options{
		Runners:   1,
		Executors: serve.Executors(eng, 5*time.Millisecond),
		Cost:      serve.JobCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	mgr.Start(ctx)
	h := serve.New(serve.Config{Engine: eng, Jobs: mgr}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		cancel()
		mgr.Close()
	})
	return ts, mgr
}

// TestSubmitMatchesLocal: -submit prints exactly what a local run prints,
// for a figure and for the corpus race, and a rerun joins the finished job.
func TestSubmitMatchesLocal(t *testing.T) {
	ts, _ := newJobServer(t, nil)
	local := experiment.NewRunnerOn(grid.New(grid.Options{Workers: 2}))
	cases := []struct {
		name string
		req  serve.ExperimentRequest
		want func() (string, error)
	}{
		{"fig5", serve.ExperimentRequest{Name: "fig5", Workloads: []string{"fpppp"}, PUs: []int{2}},
			func() (string, error) {
				cells, err := experiment.Figure5(local, []int{2}, []string{"fpppp"})
				return experiment.FormatFigure5(cells), err
			}},
		{"corpus", serve.ExperimentRequest{Name: "corpus", Seed: 5, N: 2, Policies: []string{"greedy"}},
			func() (string, error) {
				spec := experiment.CorpusSpec{Seed: 5, N: 2, Policies: []string{"greedy"}}
				rows, err := local.Corpus(spec)
				return experiment.FormatCorpus(spec, rows), err
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.want()
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				var out bytes.Buffer
				if err := runSubmit(context.Background(), &out, io.Discard, ts.URL, "", c.req); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if out.String() != want {
					t.Fatalf("run %d: -submit output differs from the local run:\n%s\nwant:\n%s", run, out.String(), want)
				}
			}
		})
	}
}

// TestSubmitCancelSendsDelete: when the command's context ends mid-sweep,
// -submit cancels the job it was streaming.
func TestSubmitCancelSendsDelete(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	// Registered before the server, so the stub outlives the manager.
	t.Cleanup(grid.SetSimForTesting(func(*core.Partition, sim.Config) (*sim.Result, error) {
		calls.Add(1)
		<-release
		return &sim.Result{IPC: 1, Cycles: 100, Instrs: 100}, nil
	}))
	deletes := make(chan string, 1)
	ts, mgr := newJobServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodDelete {
				deletes <- r.URL.Path
			}
			h.ServeHTTP(w, r)
		})
	})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open() // before the server's cleanup, which waits for the runner

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	stderr, stderrW := io.Pipe()
	go func() {
		done <- runSubmit(ctx, io.Discard, stderrW, ts.URL, "",
			serve.ExperimentRequest{Name: "fig5", Workloads: []string{"fpppp"}, PUs: []int{2}})
	}()
	// The job's ID on stderr means the client holds the stream.
	if line, err := bufio.NewReader(stderr).ReadString('\n'); err != nil || !strings.HasPrefix(line, "submitted job ") {
		t.Fatalf("stderr %q (%v), want the job ID", line, err)
	}
	for deadline := time.Now().Add(5 * time.Second); calls.Load() == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached the simulator")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("runSubmit = %v, want context.Canceled", err)
	}
	var id string
	select {
	case path := <-deletes:
		id = strings.TrimPrefix(path, "/v1/jobs/")
	case <-time.After(5 * time.Second):
		t.Fatal("no DELETE after the context ended")
	}
	// The gated sims in flight must return before the job can finalize.
	open()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		rec, _ := mgr.Get(id)
		if rec.State == jobs.StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job after DELETE: %+v, want canceled", rec)
		}
	}
}
