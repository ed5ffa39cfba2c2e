package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
)

const simulateBody = `{"workload":"compress","machine":{"pus":4}}`

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output: the
// access line is written in the middleware's deferred closure, which can
// race the test's read of the response.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForTrace polls the recorder until the trace lands — the middleware
// ends the root span after the response body is written, so the client can
// observe the response before the trace is retained.
func waitForTrace(t *testing.T, tr *span.Tracer, id span.TraceID) *span.TraceData {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if td := tr.Recorder().Get(id); td != nil {
			return td
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("trace %s never reached the recorder", id)
	return nil
}

// TestTracedRequestEchoesHeaderAndRecords: a traced /v1/simulate answers
// with X-Ms-Trace, and the finished trace holds the serve.request root over
// the grid's span tree.
func TestTracedRequestEchoesHeaderAndRecords(t *testing.T) {
	fastSim(t)
	tr := span.New(span.Options{Process: "mssrv"})
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{Tracer: tr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simulateBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	sc, ok := span.ParseHeader(resp.Header.Get(span.Header))
	if !ok {
		t.Fatalf("response %s header %q unparseable", span.Header, resp.Header.Get(span.Header))
	}

	td := waitForTrace(t, tr, sc.TraceID)
	if td.Root.Name != "serve.request" || td.Root.SpanID != sc.SpanID {
		t.Errorf("root = %s/%s, want serve.request/%s", td.Root.Name, td.Root.SpanID, sc.SpanID)
	}
	if td.Root.Attrs["path"] != "/v1/simulate" || td.Root.Attrs["status"] != "200" {
		t.Errorf("root attrs = %v", td.Root.Attrs)
	}
	var run *span.SpanData
	for i, s := range td.Spans {
		if s.Name == "grid.run" {
			run = &td.Spans[i]
		}
	}
	if run == nil {
		t.Fatalf("no grid.run span under serve.request")
	}
	if run.Parent != td.Root.SpanID {
		t.Errorf("grid.run parent = %s, want the request root %s", run.Parent, td.Root.SpanID)
	}
}

// TestIncomingTraceHeaderIsHonored: a request carrying X-Ms-Trace joins the
// caller's trace instead of starting a fresh one.
func TestIncomingTraceHeaderIsHonored(t *testing.T) {
	fastSim(t)
	tr := span.New(span.Options{Process: "mssrv"})
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{Tracer: tr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	parent := span.SpanContext{TraceID: span.NewTraceID(), SpanID: "00000000deadbeef"}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(simulateBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(span.Header, span.FormatHeader(parent))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	td := waitForTrace(t, tr, parent.TraceID)
	if td.Root.Name != "serve.request" || td.Root.Parent != parent.SpanID {
		t.Errorf("root = %s parent=%s, want serve.request under %s",
			td.Root.Name, td.Root.Parent, parent.SpanID)
	}
	if got := resp.Header.Get(span.Header); !strings.HasPrefix(got, string(parent.TraceID)) {
		t.Errorf("response header %q lost the caller's trace ID", got)
	}
}

// TestDebugEndpointsServeTrace: the /debug surface lists the finished trace
// and exports it as a Chrome trace-event file holding the request's whole
// span tree under one root, and a tracer that shares the server's registry
// puts its per-span latency histograms on the /metrics scrape.
func TestDebugEndpointsServeTrace(t *testing.T) {
	fastSim(t)
	reg := obs.NewRegistry()
	tr := span.New(span.Options{Process: "mssrv", Metrics: reg})
	srv := New(Config{Engine: grid.New(grid.Options{Workers: 2, Metrics: reg}), Metrics: reg, Tracer: tr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simulateBody)
	sc, _ := span.ParseHeader(resp.Header.Get(span.Header))
	waitForTrace(t, tr, sc.TraceID)

	listResp, listBody := getBody(t, ts.Client(), ts.URL+"/debug/traces")
	if listResp.StatusCode != http.StatusOK || !strings.Contains(listBody, string(sc.TraceID)) {
		t.Errorf("/debug/traces = %d %s, want listing with %s", listResp.StatusCode, listBody, sc.TraceID)
	}

	treeResp, treeBody := getBody(t, ts.Client(), fmt.Sprintf("%s/debug/traces/%s", ts.URL, sc.TraceID))
	if treeResp.StatusCode != http.StatusOK || !strings.Contains(treeBody, "serve.request") {
		t.Errorf("trace tree = %d %s", treeResp.StatusCode, treeBody)
	}

	chromeResp, chromeBody := getBody(t, ts.Client(),
		fmt.Sprintf("%s/debug/traces/%s?format=chrome", ts.URL, sc.TraceID))
	if chromeResp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: %d", chromeResp.StatusCode)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				SpanID   string `json:"span_id"`
				ParentID string `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chromeBody), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	names, ids := make(map[string]bool), make(map[string]bool)
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" {
			names[e.Name] = true
			ids[e.Args.SpanID] = true
		}
	}
	for _, want := range []string{"serve.request", "grid.run", "grid.sim-exec"} {
		if !names[want] {
			t.Errorf("chrome export lacks a %s slice (has %v)", want, names)
		}
	}
	var roots []string
	for _, e := range chrome.TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Args.ParentID == "":
			roots = append(roots, e.Name)
		case !ids[e.Args.ParentID]:
			t.Errorf("%s has dangling parent %s", e.Name, e.Args.ParentID)
		}
	}
	if len(roots) != 1 || roots[0] != "serve.request" {
		t.Errorf("roots = %v, want exactly serve.request", roots)
	}

	_, metrics := getBody(t, ts.Client(), ts.URL+"/metrics")
	if !regexp.MustCompile(`(?m)^ms_span_duration_seconds.*span="grid\.sim-exec"`).MatchString(metrics) {
		t.Errorf("/metrics has no ms_span_duration_seconds series for grid.sim-exec:\n%s", metrics)
	}

	reqResp, reqBody := getBody(t, ts.Client(), ts.URL+"/debug/requests")
	if reqResp.StatusCode != http.StatusOK || !strings.Contains(reqBody, "requests") {
		t.Errorf("/debug/requests = %d %s", reqResp.StatusCode, reqBody)
	}
}

// TestAccessLogCarriesTraceID: satellite for the slog migration — the JSON
// access line must stamp the trace_id so log lines join traces.
func TestAccessLogCarriesTraceID(t *testing.T) {
	fastSim(t)
	var buf syncBuffer
	tr := span.New(span.Options{Process: "mssrv"})
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{
		Tracer: tr,
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simulateBody)
	sc, _ := span.ParseHeader(resp.Header.Get(span.Header))
	waitForTrace(t, tr, sc.TraceID)

	var access map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if m["msg"] == "access" {
			access = m
		}
	}
	if access == nil {
		t.Fatalf("no access line in %q", buf.String())
	}
	if access["trace_id"] != string(sc.TraceID) {
		t.Errorf("access line trace_id = %v, want %s (line %v)", access["trace_id"], sc.TraceID, access)
	}
	if access["path"] != "/v1/simulate" || access["status"] != float64(200) {
		t.Errorf("access line = %v", access)
	}
}

// TestUntracedServerIsUnchanged: without a tracer there is no response
// header and no /debug surface — tracing is strictly pay-for-use.
func TestUntracedServerIsUnchanged(t *testing.T) {
	fastSim(t)
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simulateBody)
	if h := resp.Header.Get(span.Header); h != "" {
		t.Errorf("untraced server set %s: %q", span.Header, h)
	}
	dbg, _ := getBody(t, ts.Client(), ts.URL+"/debug/traces")
	if dbg.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/traces on untraced server = %d, want 404", dbg.StatusCode)
	}
}
