package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim"
)

// gateSim stubs the grid's simulation function with one that counts calls
// and blocks until release is closed.
func gateSim(t *testing.T) (release chan struct{}, calls *atomic.Int64) {
	t.Helper()
	release = make(chan struct{})
	calls = &atomic.Int64{}
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		<-release
		return &sim.Result{IPC: 1, Cycles: 100, Instrs: 100}, nil
	})
	t.Cleanup(restore)
	return release, calls
}

// fastSim stubs the grid's simulation function with an instant result.
func fastSim(t *testing.T) *atomic.Int64 {
	t.Helper()
	calls := &atomic.Int64{}
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return &sim.Result{IPC: 1, Cycles: 100, Instrs: 100}, nil
	})
	t.Cleanup(restore)
	return calls
}

// newTestServer builds a server (and its engine) with test-friendly bounds.
func newTestServer(t *testing.T, engOpts grid.Options, cfg Config) (*Server, *grid.Engine) {
	t.Helper()
	reg := obs.NewRegistry()
	engOpts.Metrics = reg
	eng := grid.New(engOpts)
	cfg.Engine = eng
	cfg.Metrics = reg
	return New(cfg), eng
}

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(blob)
}

func getBody(t *testing.T, client *http.Client, url string) (*http.Response, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, string(blob)
}

// waitFor polls cond up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const simBody = `{"workload":"fpppp","select":{"heuristic":"cf"},"machine":{"pus":4}}`

// TestCoalescing proves the server's core economic property: N identical
// concurrent POST /v1/simulate requests cause exactly one engine simulation,
// and every client receives the same result.
func TestCoalescing(t *testing.T) {
	release, calls := gateSim(t)
	srv, eng := newTestServer(t, grid.Options{Workers: 2}, Config{MaxInFlight: 32})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simBody)
			replies <- reply{resp.StatusCode, body}
		}()
	}
	// One leader is inside the (blocked) sim; the other n-1 must be
	// coalesced waiters, holding no worker slot.
	waitFor(t, "leader to start simulating", func() bool { return calls.Load() == 1 })
	waitFor(t, "waiters to coalesce", func() bool { return eng.Stats().Deduped >= n-1 })
	close(release)
	wg.Wait()
	close(replies)

	var bodies []string
	for r := range replies {
		if r.status != http.StatusOK {
			t.Errorf("status %d, body %s", r.status, r.body)
		}
		bodies = append(bodies, r.body)
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("response %d differs from response 0", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d sims, want exactly 1", n, got)
	}
	if s := eng.Stats(); s.Sims != 1 {
		t.Errorf("engine sims = %d, want 1", s.Sims)
	}
}

// TestLoadShed proves the admission gate: with one slot occupied by a
// blocked request, the next request is shed with 429 + Retry-After and a
// structured error body, without touching the engine.
func TestLoadShed(t *testing.T) {
	release, calls := gateSim(t)
	srv, eng := newTestServer(t, grid.Options{Workers: 1}, Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simBody)
		first <- resp.StatusCode
	}()
	waitFor(t, "first request to occupy the slot", func() bool { return calls.Load() == 1 })

	// A different job (no coalescing possible) must be shed at the gate.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		`{"workload":"fpppp","select":{"heuristic":"bb"},"machine":{"pus":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Code != "overloaded" {
		t.Errorf("shed body = %q (err %v), want code overloaded", body, err)
	}
	if jobs := eng.Stats().Jobs; jobs != 1 {
		t.Errorf("shed request reached the engine (jobs=%d)", jobs)
	}

	close(release)
	if status := <-first; status != http.StatusOK {
		t.Errorf("occupying request finished with %d", status)
	}
	// The shed is visible on the scrape.
	_, scrape := getBody(t, ts.Client(), ts.URL+"/metrics")
	if !strings.Contains(scrape, "serve_shed_total 1") {
		t.Errorf("metrics missing serve_shed_total 1:\n%s", scrape)
	}
}

// TestGracefulDrain proves Shutdown semantics: the listener stops accepting
// new connections while the in-flight request runs to completion and gets a
// full 200 response; afterwards healthz reports draining.
func TestGracefulDrain(t *testing.T) {
	release, calls := gateSim(t)
	srv, _ := newTestServer(t, grid.Options{Workers: 1}, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	client := &http.Client{}
	inflight := make(chan struct {
		status int
		body   string
	}, 1)
	go func() {
		resp, body := postJSON(t, client, url+"/v1/simulate", simBody)
		inflight <- struct {
			status int
			body   string
		}{resp.StatusCode, body}
	}()
	waitFor(t, "request to reach the simulator", func() bool { return calls.Load() == 1 })

	shutdownErr := make(chan error, 1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(shutdownCtx) }()

	// The listener must close promptly even though a request is in flight.
	waitFor(t, "listener to stop accepting", func() bool {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 50*time.Millisecond)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})
	select {
	case r := <-inflight:
		t.Fatalf("in-flight request completed during drain before release: %d %s", r.status, r.body)
	default:
	}

	close(release)
	r := <-inflight
	if r.status != http.StatusOK || !strings.Contains(r.body, `"result"`) {
		t.Errorf("in-flight request during drain: status %d body %s", r.status, r.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown returned %v, want nil (clean drain)", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}

	// After drain the handler itself reports draining.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("healthz after drain: %d %s", rec.Code, rec.Body.String())
	}
}

// lastProgress decodes the progress event just before the terminal one.
func lastProgress(t *testing.T, events []jobEvent) Progress {
	t.Helper()
	var p Progress
	if len(events) < 2 || events[len(events)-2].name != "progress" {
		t.Fatalf("no progress event before the terminal one: %+v", events)
	}
	if err := json.Unmarshal([]byte(events[len(events)-2].data), &p); err != nil {
		t.Fatalf("progress data %q: %v", events[len(events)-2].data, err)
	}
	return p
}

// TestExperimentSSE proves the stream shape: POST /v1/experiment names its
// job in Location and streams numbered progress events, then a terminal
// result event carrying the experiment rows. The stream is the job's event
// log — a later replay serves the same bytes — and an identical POST joins
// the finished job without simulating again.
func TestExperimentSSE(t *testing.T) {
	calls := fastSim(t)
	srv, _, _ := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const req = `{"name":"fig5","workloads":["fpppp"],"pus":[2]}`
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/experiment", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q, want the job", loc)
	}
	events := readSSE(t, strings.NewReader(body), 0)
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least progress + result:\n%s", len(events), body)
	}
	for i, ev := range events {
		if ev.id != int64(i)+1 {
			t.Errorf("event %d has id %d, want numbered from 1", i, ev.id)
		}
		if i == len(events)-1 {
			break
		}
		if ev.name != "progress" {
			t.Errorf("mid-stream event %q, want progress", ev.name)
		}
		var prog Progress
		if err := json.Unmarshal([]byte(ev.data), &prog); err != nil {
			t.Errorf("progress data %q: %v", ev.data, err)
		}
	}
	last := events[len(events)-1]
	if last.name != "result" {
		t.Fatalf("terminal event %q, want result:\n%s", last.name, body)
	}
	var res ExperimentResult
	if err := json.Unmarshal([]byte(last.data), &res); err != nil {
		t.Fatalf("result data: %v", err)
	}
	// 1 workload × 1 PU count × {ooo, inorder} × 4 variants.
	if res.Name != "fig5" || len(res.Cells) != 8 {
		t.Errorf("result name=%q cells=%d, want fig5/8", res.Name, len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.IPC != 1 {
			t.Errorf("cell %+v missing stubbed IPC", c)
		}
	}
	if p := lastProgress(t, events); p.JobsDone == 0 || p.Sims == 0 {
		t.Errorf("last progress event shows no work: %+v", p)
	}

	if _, replay := getBody(t, ts.Client(), ts.URL+loc+"/events"); replay != body {
		t.Errorf("replay of %s differs from the POST stream:\n%s\nvs\n%s", loc, replay, body)
	}
	sims := calls.Load()
	resp, again := postJSON(t, ts.Client(), ts.URL+"/v1/experiment", req)
	if resp.Header.Get("Location") != loc || again != body {
		t.Errorf("identical POST: Location %q stream\n%s\nwant %q and the stored log", resp.Header.Get("Location"), again, loc)
	}
	if n := calls.Load() - sims; n != 0 {
		t.Errorf("identical POST ran %d new sims, want 0", n)
	}
}

// TestExperimentStreamHoldsNoSlot: a streaming sweep is a job, so it holds
// no admission slot — with one slot and a gated sweep on the wire, a
// synchronous request is still admitted.
func TestExperimentStreamHoldsNoSlot(t *testing.T) {
	release, calls := gateSim(t)
	srv, _, _ := newJobsServer(t, "", Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release) // before ts.Close, which waits for the stream

	started := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/experiment", "application/json",
			strings.NewReader(`{"name":"fig5","workloads":["fpppp"],"pus":[2]}`))
		if err != nil {
			t.Error(err)
			started <- 0
			return
		}
		started <- resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if status := <-started; status != http.StatusOK {
		t.Fatalf("experiment stream status %d, want 200", status)
	}
	waitFor(t, "sweep to reach the simulator", func() bool { return calls.Load() > 0 })

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/generate", `{"generator":{"seed":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate during a streaming sweep: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestBadRequests pins the 4xx contract: strict decoding, up-front
// validation, and the structured error shape.
func TestBadRequests(t *testing.T) {
	fastSim(t)
	srv, eng, _ := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"unknown field", "/v1/simulate", `{"workload":"fpppp","bogus":1}`, 400, "invalid_request"},
		{"malformed json", "/v1/simulate", `{"workload":`, 400, "invalid_request"},
		{"trailing data", "/v1/simulate", simBody + ` {"again":true}`, 400, "invalid_request"},
		{"unknown workload", "/v1/simulate", `{"workload":"nope"}`, 400, "unknown_workload"},
		{"missing workload", "/v1/simulate", `{}`, 400, "unknown_workload"},
		{"bad heuristic", "/v1/simulate", `{"workload":"fpppp","select":{"heuristic":"zz"}}`, 400, "invalid_request"},
		{"bad pus", "/v1/simulate", `{"workload":"fpppp","machine":{"pus":-3}}`, 400, "invalid_request"},
		{"huge pus", "/v1/simulate", `{"workload":"fpppp","machine":{"pus":4096}}`, 400, "invalid_request"},
		{"huge l1d_banks", "/v1/simulate", `{"workload":"fpppp","machine":{"l1d_banks":1000000000}}`, 400, "invalid_request"},
		{"partition unknown workload", "/v1/partition", `{"workload":"nope"}`, 400, "unknown_workload"},
		{"partition bad heuristic", "/v1/partition", `{"workload":"fpppp","select":{"heuristic":"xx"}}`, 400, "invalid_request"},
		{"unknown experiment", "/v1/experiment", `{"name":"fig9"}`, 400, "invalid_request"},
		{"experiment bad workload", "/v1/experiment", `{"name":"fig5","workloads":["nope"]}`, 400, "invalid_request"},
		{"experiment bad pus", "/v1/experiment", `{"name":"fig5","pus":[0]}`, 400, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.Client(), ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil {
				t.Fatalf("error body not structured: %q (%v)", body, err)
			}
			if eb.Error.Code != tc.code {
				t.Errorf("code %q, want %q (message %q)", eb.Error.Code, tc.code, eb.Error.Message)
			}
			if eb.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
	if jobs := eng.Stats().Jobs; jobs != 0 {
		t.Errorf("invalid requests reached the engine (jobs=%d)", jobs)
	}

	// Wrong method and unknown route.
	resp, err := ts.Client().Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate = %d, want 405", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nope", `{}`)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "not_found") {
		t.Errorf("unknown route: %d %s", resp.StatusCode, body)
	}

	// Oversized body.
	srv2, _ := newTestServer(t, grid.Options{Workers: 1}, Config{MaxBodyBytes: 64})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, body = postJSON(t, ts2.Client(), ts2.URL+"/v1/simulate",
		`{"workload":"`+strings.Repeat("x", 200)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body, "body_too_large") {
		t.Errorf("oversized body: %d %s", resp.StatusCode, body)
	}

	// /v1/experiment is a job route: 405 on the wrong method with a job
	// manager, 404 on any method without one.
	for _, c := range []struct {
		url    string
		method string
		want   int
	}{
		{ts.URL, http.MethodGet, http.StatusMethodNotAllowed},
		{ts2.URL, http.MethodGet, http.StatusNotFound},
		{ts2.URL, http.MethodPost, http.StatusNotFound},
	} {
		req, _ := http.NewRequest(c.method, c.url+"/v1/experiment", strings.NewReader(`{"name":"fig5"}`))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s /v1/experiment = %d, want %d", c.method, resp.StatusCode, c.want)
		}
	}
}

// TestPartitionEndpoint exercises the full partition + verify path against
// the real selector (no stubbing: partitions are cheap).
func TestPartitionEndpoint(t *testing.T) {
	srv, eng := newTestServer(t, grid.Options{Workers: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
		`{"workload":"compress","select":{"heuristic":"dd","task_size":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Workload != "compress" || pr.Heuristic != "data dependence" {
		t.Errorf("workload/heuristic = %q/%q", pr.Workload, pr.Heuristic)
	}
	if pr.Tasks == 0 || pr.Blocks == 0 {
		t.Errorf("empty summary: %+v", pr)
	}
	// Select-produced partitions always verify clean of errors.
	if pr.Errors != 0 {
		t.Errorf("verify errors on a Select partition: %+v", pr.Findings)
	}
	// Identical repeated request hits the partition memo.
	if _, body2 := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
		`{"workload":"compress","select":{"heuristic":"dd","task_size":true}}`); body2 != body {
		t.Error("repeated partition request not deterministic")
	}
	if p := eng.Stats().Partitions; p != 1 {
		t.Errorf("partitions = %d, want 1 (memoized)", p)
	}
}

// TestHealthzAndMetrics covers the operational endpoints end to end with a
// live simulate in between.
func TestHealthzAndMetrics(t *testing.T) {
	fastSim(t)
	srv, _ := newTestServer(t, grid.Options{Workers: 2}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || hr.Status != "ok" || hr.Workers != 2 {
		t.Errorf("healthz: %d %+v", resp.StatusCode, hr)
	}

	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simBody); resp.StatusCode != 200 {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	} else {
		var sr SimulateResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Key == "" || sr.Result == nil || sr.Result.IPC != 1 {
			t.Errorf("simulate response: %+v", sr)
		}
	}

	_, scrape := getBody(t, ts.Client(), ts.URL+"/metrics")
	for _, want := range []string{"serve_requests_total", "serve_inflight", "grid_jobs_total", "grid_sims_total"} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics missing %s:\n%s", want, scrape)
		}
	}
}

// TestPanicRecovery: a handler panic becomes a 500 with the structured
// error shape, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	srv, _ := newTestServer(t, grid.Options{Workers: 1}, Config{})
	// Reach into the mux indirectly: a nil-map write via a crafted request
	// isn't available, so wrap the handler with a deliberate panic route.
	h := srv.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", h)
	panicking := srv.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	panicking.ServeHTTP(rec, httptest.NewRequest("GET", "/whatever", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic produced %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "internal" {
		t.Errorf("panic body %q (%v)", rec.Body.String(), err)
	}
	// The server is still functional.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz after panic: %d", rec.Code)
	}
}

// TestRequestDeadline: a request whose deadline expires while queued gets a
// 504 with code deadline_exceeded, and the canceled job is not memoized.
func TestRequestDeadline(t *testing.T) {
	release, calls := gateSim(t)
	srv, eng := newTestServer(t, grid.Options{Workers: 1},
		Config{RequestTimeout: 80 * time.Millisecond, MaxInFlight: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single worker.
	occupier := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simBody)
		occupier <- resp.StatusCode
	}()
	waitFor(t, "occupier to start", func() bool { return calls.Load() == 1 })

	// This one queues behind it and must time out at the request deadline.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		`{"workload":"fpppp","select":{"heuristic":"bb"},"machine":{"pus":2}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request: %d %s, want 504", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Code != "deadline_exceeded" {
		t.Errorf("deadline body %q (%v)", body, err)
	}

	close(release)
	if s := <-occupier; s != 200 {
		t.Errorf("occupier finished with %d", s)
	}
	// The deadline-canceled job must not be memoized: rerunning it with a
	// free worker now succeeds.
	sims := eng.Stats().Sims
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/simulate",
		`{"workload":"fpppp","select":{"heuristic":"bb"},"machine":{"pus":2}}`)
	if resp.StatusCode != 200 {
		t.Errorf("rerun after deadline: %d %s", resp.StatusCode, body)
	}
	if got := eng.Stats().Sims; got != sims+1 {
		t.Errorf("rerun did not simulate (sims %d -> %d)", sims, got)
	}
}
