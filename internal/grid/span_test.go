package grid

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// TestRunCtxSpans checks that one traced job yields the documented span
// taxonomy with correct parent links, and that the same job run untraced
// produces a byte-identical result (tracing must never perturb outputs).
func TestRunCtxSpans(t *testing.T) {
	job := Job{Workload: "compress", Select: core.Options{Heuristic: core.ControlFlow},
		Config: sim.DefaultConfig(4)}

	tr := span.New(span.Options{Process: "test"})
	eng := New(Options{Workers: 2, CacheDir: t.TempDir()})
	ctx, root := tr.StartRoot(context.Background(), "request")
	traced, err := eng.RunCtx(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	root.End(nil)

	plain, err := New(Options{Workers: 2}).RunCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("traced result differs from untraced:\n%+v\n%+v", traced, plain)
	}

	td := tr.Recorder().Get(root.TraceID())
	if td == nil {
		t.Fatal("trace not recorded")
	}
	byName := map[string]span.SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	for _, want := range []string{"grid.run", "grid.cache-lookup", "grid.queue-wait",
		"grid.prepare", "grid.partition", "grid.sim-exec"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("span %q missing; got %v", want, names(td.Spans))
		}
	}
	run := byName["grid.run"]
	if run.Parent != td.Root.SpanID {
		t.Errorf("grid.run parent = %q, want root", run.Parent)
	}
	if run.Attrs["workload"] != "compress" || run.Attrs["pus"] != "4" || run.Attrs["key"] == "" {
		t.Errorf("grid.run attrs = %v", run.Attrs)
	}
	if byName["grid.cache-lookup"].Attrs["hit"] != "false" {
		t.Errorf("cold cache probe marked hit: %v", byName["grid.cache-lookup"].Attrs)
	}

	// Warm rerun on the same engine: the memo answers without a new trace
	// touching cache or sim spans beyond the run itself.
	ctx2, root2 := tr.StartRoot(context.Background(), "request2")
	if _, err := eng.RunCtx(ctx2, job); err != nil {
		t.Fatal(err)
	}
	root2.End(nil)
	td2 := tr.Recorder().Get(root2.TraceID())
	for _, s := range td2.Spans {
		if s.Name == "grid.sim-exec" {
			t.Error("memoized rerun re-simulated")
		}
	}
}

// TestSingleflightWaitSpan: a duplicate concurrent job records the time it
// spent coalesced behind the leader as a grid.singleflight-wait span.
func TestSingleflightWaitSpan(t *testing.T) {
	started := make(chan struct{})
	restore := SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		close(started)
		time.Sleep(20 * time.Millisecond)
		return &sim.Result{IPC: 1}, nil
	})
	defer restore()

	tr := span.New(span.Options{Process: "test"})
	eng := New(Options{Workers: 2})
	job := Job{Workload: "compress", Config: sim.DefaultConfig(2)}

	ctx, root := tr.StartRoot(context.Background(), "coalesced")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = eng.RunCtx(ctx, job) // leader; the follower's return is what we assert
	}()
	<-started
	if _, err := eng.RunCtx(ctx, job); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	root.End(nil)

	td := tr.Recorder().Get(root.TraceID())
	found := false
	for _, s := range td.Spans {
		if s.Name == "grid.singleflight-wait" {
			found = true
		}
	}
	if !found {
		t.Errorf("no singleflight-wait span; got %v", names(td.Spans))
	}
}

func names(spans []span.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
