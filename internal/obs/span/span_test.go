package span

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multiscalar/internal/obs"
)

func TestHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: newSpanID()}
	got, ok := ParseHeader(FormatHeader(sc))
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	for _, bad := range []string{
		"", "x", strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16),
		strings.Repeat("a", 32) + ":" + strings.Repeat("a", 16),
		strings.Repeat("a", 31) + "-" + strings.Repeat("a", 17),
		strings.Repeat("A", 32) + "-" + strings.Repeat("a", 16), // uppercase rejected
	} {
		if _, ok := ParseHeader(bad); ok {
			t.Errorf("ParseHeader(%q) accepted malformed input", bad)
		}
	}
}

// TestNilTracerIsFullyInert: every operation on a nil tracer and the nil
// spans it yields must be a no-op — this is what makes instrumented code
// safe to leave in place untraced.
func TestNilTracerIsFullyInert(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "root")
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("nil tracer polluted the context")
	}
	ctx2, child := Start(ctx, "child")
	if child != nil || ctx2 != ctx {
		t.Fatal("Start on an untraced context must return it unchanged")
	}
	child.SetAttr("k", "v")
	child.Event("e")
	child.End(nil)
	if child.TraceID() != "" || child.Context().Valid() {
		t.Fatal("nil span leaked identity")
	}
	tr.Record(SpanContext{}, "x", time.Now(), 0, nil)
	tr.Ingest([]SpanData{{TraceID: "t"}})
	if tr.Collect("t") != nil || tr.Recorder() != nil || tr.InFlight() != nil {
		t.Fatal("nil tracer retained state")
	}
}

func TestRootChildTreeAndRecorder(t *testing.T) {
	tr := New(Options{Process: "test"})
	ctx, root := tr.StartRoot(context.Background(), "request")
	root.SetAttr("path", "/v1/simulate")

	cctx, child := Start(ctx, "grid.run")
	_, grand := Start(cctx, "sim.exec")
	grand.End(nil)
	child.End(nil)

	if got := len(tr.InFlight()); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	root.End(nil)
	if got := len(tr.InFlight()); got != 0 {
		t.Fatalf("InFlight after End = %d, want 0", got)
	}

	td := tr.Recorder().Get(root.TraceID())
	if td == nil {
		t.Fatal("completed trace not in recorder")
	}
	if td.Errored || td.Status() != StatusOK {
		t.Errorf("clean trace marked errored: %+v", td)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(td.Spans), td.Spans)
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["grid.run"].Parent != td.Root.SpanID {
		t.Errorf("grid.run parent = %q, want root %q", byName["grid.run"].Parent, td.Root.SpanID)
	}
	if byName["sim.exec"].Parent != byName["grid.run"].SpanID {
		t.Errorf("sim.exec parent = %q, want grid.run %q", byName["sim.exec"].Parent, byName["grid.run"].SpanID)
	}
	if td.Root.Attrs["path"] != "/v1/simulate" {
		t.Errorf("root attrs = %v", td.Root.Attrs)
	}
	if td.Root.Process != "test" {
		t.Errorf("process = %q", td.Root.Process)
	}
}

func TestEndIsIdempotentAndError(t *testing.T) {
	tr := New(Options{})
	_, root := tr.StartRoot(context.Background(), "r")
	root.End(errors.New("boom"))
	root.End(nil) // second End must not re-record or clear the error
	td := tr.Recorder().Get(root.TraceID())
	if td == nil || !td.Errored || td.Root.Error != "boom" {
		t.Fatalf("errored trace mis-recorded: %+v", td)
	}
	if len(td.Spans) != 1 {
		t.Errorf("double End duplicated the span: %d", len(td.Spans))
	}
}

// TestWorkerFragmentStitching exercises the cross-process flow: a "leader"
// tracer dispatches, a "worker" tracer records under the remote parent,
// Collect ships the fragment, Ingest merges it while the root is open.
func TestWorkerFragmentStitching(t *testing.T) {
	leader := New(Options{Process: "leader"})
	worker := New(Options{Process: "w1"})

	ctx, root := leader.StartRoot(context.Background(), "dispatch")
	sc := root.Context()

	// Worker side, as if on another machine.
	worker.Record(sc, "worker.pull", time.Now().Add(-time.Millisecond), time.Millisecond, nil)
	_, exec := worker.StartRemote(context.Background(), sc, "worker.exec")
	exec.End(nil)
	frag := worker.Collect(sc.TraceID)
	if len(frag) != 2 {
		t.Fatalf("fragment has %d spans, want 2", len(frag))
	}
	if worker.Collect(sc.TraceID) != nil {
		t.Error("Collect must drain the fragment")
	}

	leader.Ingest(frag)
	root.End(nil)
	_ = ctx

	td := leader.Recorder().Get(root.TraceID())
	if td == nil {
		t.Fatal("trace not recorded")
	}
	procs := map[string]bool{}
	for _, s := range td.Spans {
		procs[s.Process] = true
		if s.Parent != "" && s.Parent != root.Context().SpanID {
			// both worker spans hang directly off the root here
			if s.TraceID != root.TraceID() {
				t.Errorf("span %q in wrong trace", s.Name)
			}
		}
	}
	if !procs["leader"] || !procs["w1"] {
		t.Errorf("processes in trace: %v, want leader+w1", procs)
	}

	// Spans for unknown traces are dropped, not accumulated.
	leader.Ingest([]SpanData{{TraceID: "deadbeef", Name: "stray"}})
	if leader.Dropped() == 0 {
		t.Error("stray ingest not counted as dropped")
	}
}

func TestMaxSpansPerTraceBounds(t *testing.T) {
	tr := New(Options{MaxSpansPerTrace: 4})
	ctx, root := tr.StartRoot(context.Background(), "r")
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "child")
		sp.End(nil)
	}
	root.End(nil)
	td := tr.Recorder().Get(root.TraceID())
	if len(td.Spans) != 4 {
		t.Errorf("stored %d spans, want cap 4", len(td.Spans))
	}
	if td.Dropped != 7 { // 10 children + root = 11 ends, 4 stored
		t.Errorf("dropped = %d, want 7", td.Dropped)
	}
}

func TestRecorderRetention(t *testing.T) {
	tr := New(Options{Ring: 4, SlowN: 2, ErrN: 2})
	finish := func(name string, dur time.Duration, fail error) TraceID {
		_, root := tr.StartRoot(context.Background(), name)
		root.lock()
		root.start = root.start.Add(-dur) // backdate for a deterministic duration
		root.unlock()
		root.End(fail)
		return root.TraceID()
	}

	slowID := finish("slow", time.Hour, nil)
	errID := finish("bad", time.Millisecond, errors.New("x"))
	var lastID TraceID
	for i := 0; i < 20; i++ {
		lastID = finish("filler", time.Duration(i)*time.Microsecond, nil)
	}

	rec := tr.Recorder()
	if rec.Get(slowID) == nil {
		t.Error("slowest trace evicted despite SlowN retention")
	}
	if rec.Get(errID) == nil {
		t.Error("errored trace evicted despite ErrN retention")
	}
	if rec.Get(lastID) == nil {
		t.Error("most recent trace missing from ring")
	}

	if got := rec.List(Filter{Status: StatusError}); len(got) != 1 || got[0].TraceID != errID {
		t.Errorf("error filter returned %d traces", len(got))
	}
	if got := rec.List(Filter{MinDuration: time.Minute}); len(got) != 1 || got[0].TraceID != slowID {
		t.Errorf("duration filter returned %d traces", len(got))
	}
	if got := rec.List(Filter{Limit: 3}); len(got) != 3 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestSpanMetricsHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Options{Metrics: reg})
	_, root := tr.StartRoot(context.Background(), "grid.run")
	root.End(nil)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `ms_span_duration_seconds_bucket{span="grid.run",le="`) {
		t.Errorf("span histogram missing from exposition:\n%s", out)
	}
	if !strings.Contains(out, `# TYPE ms_span_duration_seconds histogram`) {
		t.Errorf("family TYPE line missing:\n%s", out)
	}
}

func TestChromeExport(t *testing.T) {
	leader := New(Options{Process: "leader"})
	worker := New(Options{Process: "w1"})
	ctx, root := leader.StartRoot(context.Background(), "request")
	_, sp := Start(ctx, "grid.run")
	sp.Event("dist.lease-reassign", "worker", "w1")
	_, exec := worker.StartRemote(context.Background(), root.Context(), "worker.exec")
	exec.End(nil)
	leader.Ingest(worker.Collect(root.TraceID()))
	sp.End(nil)
	root.End(errors.New("partial"))

	td := leader.Recorder().Get(root.TraceID())
	var buf bytes.Buffer
	if err := WriteChrome(&buf, td); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid chrome JSON: %v\n%s", err, buf.String())
	}
	procNames := map[string]int{}
	slices := map[string]bool{}
	sawInstant := false
	for _, e := range tr.TraceEvents {
		if e.Ts < 0 {
			t.Errorf("negative timestamp on %q", e.Name)
		}
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procNames[e.Args["name"].(string)] = e.Pid
			}
		case "X":
			slices[e.Name] = true
		case "i":
			sawInstant = true
		}
	}
	if procNames["leader"] != 0 {
		t.Errorf("root process not pid 0: %v", procNames)
	}
	if _, ok := procNames["w1"]; !ok {
		t.Errorf("worker process missing a track: %v", procNames)
	}
	for _, want := range []string{"request", "grid.run", "worker.exec"} {
		if !slices[want] {
			t.Errorf("no X slice for %q", want)
		}
	}
	if !sawInstant {
		t.Error("lease-reassign event not exported as an instant")
	}
}

func TestDebugEndpoints(t *testing.T) {
	tr := New(Options{Process: "test"})
	mux := http.NewServeMux()
	RegisterDebug(mux, tr)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, root := tr.StartRoot(context.Background(), "request")
	_, child := Start(ctx, "grid.run")
	child.End(nil)

	// While the root is open it shows in /debug/requests.
	var inflight struct {
		Requests []InFlightTrace `json:"requests"`
	}
	getJSON(t, srv.URL+"/debug/requests", &inflight)
	if len(inflight.Requests) != 1 || inflight.Requests[0].Root != "request" {
		t.Fatalf("in-flight = %+v", inflight.Requests)
	}

	root.End(nil)
	id := string(root.TraceID())

	var list struct {
		Traces []Summary `json:"traces"`
	}
	getJSON(t, srv.URL+"/debug/traces", &list)
	if len(list.Traces) != 1 || list.Traces[0].TraceID != root.TraceID() {
		t.Fatalf("list = %+v", list.Traces)
	}
	getJSON(t, srv.URL+"/debug/traces?status=error", &list)
	if len(list.Traces) != 0 {
		t.Fatalf("error filter matched a clean trace")
	}

	var tree struct {
		TraceID string `json:"trace_id"`
		Tree    []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"tree"`
	}
	getJSON(t, srv.URL+"/debug/traces/"+id, &tree)
	if len(tree.Tree) != 1 || tree.Tree[0].Name != "request" {
		t.Fatalf("tree roots = %+v", tree.Tree)
	}
	if len(tree.Tree[0].Children) != 1 || tree.Tree[0].Children[0].Name != "grid.run" {
		t.Fatalf("tree children = %+v", tree.Tree[0].Children)
	}

	resp, err := http.Get(srv.URL + "/debug/traces/" + id + "?format=chrome")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome download: %v %v", err, resp)
	}
	var chrome map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome JSON: %v", err)
	}
	resp.Body.Close()
	if _, ok := chrome["traceEvents"]; !ok {
		t.Fatal("chrome export missing traceEvents")
	}

	for path, wantCode := range map[string]int{
		"/debug/traces/ffffffffffffffffffffffffffffffff": http.StatusNotFound,
		"/debug/traces?status=weird":                     http.StatusBadRequest,
		"/debug/traces?min_ms=-1":                        http.StatusBadRequest,
		"/debug/traces?limit=0":                          http.StatusBadRequest,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestConcurrentSpans runs overlapping traces under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := New(Options{MaxActive: 8, Ring: 8})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartRoot(context.Background(), fmt.Sprintf("g%d", g))
				_, c := Start(ctx, "child")
				c.SetAttr("i", "x")
				c.Event("tick")
				c.End(nil)
				root.End(nil)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tr.Recorder().Len() != 400 {
		t.Errorf("recorded %d traces, want 400", tr.Recorder().Len())
	}
}
