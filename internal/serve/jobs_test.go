package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/jobs"
	"multiscalar/internal/obs"
)

// newJobsServer builds a server with the async job subsystem wired the way
// cmd/mssrv wires it: manager executors over the same engine, JobCost, and
// any extra Config the test needs.
func newJobsServer(t *testing.T, dir string, cfg Config) (*Server, *grid.Engine, *jobs.Manager) {
	t.Helper()
	reg := obs.NewRegistry()
	eng := grid.New(grid.Options{Workers: 2, Metrics: reg})
	mgr, err := jobs.NewManager(jobs.Options{
		Runners:   2,
		Dir:       dir,
		Executors: Executors(eng, 5*time.Millisecond),
		Cost:      JobCost,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	mgr.Start(ctx)
	t.Cleanup(func() {
		cancel()
		mgr.Close()
	})
	cfg.Engine = eng
	cfg.Metrics = reg
	cfg.Jobs = mgr
	return New(cfg), eng, mgr
}

const jobSimBody = `{"kind":"simulate","request":` + simBody + `}`

func submitJob(t *testing.T, client *http.Client, base, body string) JobStatusResponse {
	t.Helper()
	resp, out := postJSON(t, client, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, out)
	}
	var js JobStatusResponse
	if err := json.Unmarshal([]byte(out), &js); err != nil {
		t.Fatalf("submit: decode %q: %v", out, err)
	}
	return js
}

func pollJob(t *testing.T, client *http.Client, base, id string) JobStatusResponse {
	t.Helper()
	var js JobStatusResponse
	waitFor(t, "job "+id+" terminal", func() bool {
		_, out := getBody(t, client, base+"/v1/jobs/"+id)
		if err := json.Unmarshal([]byte(out), &js); err != nil {
			return false
		}
		return js.State == "done" || js.State == "failed" || js.State == "canceled"
	})
	return js
}

// TestJobSubmitPollWarmResubmit is the core async flow: submit returns an ID
// immediately, polling reaches done, and resubmitting the same body returns
// the cached terminal result with zero new simulations.
func TestJobSubmitPollWarmResubmit(t *testing.T) {
	calls := fastSim(t)
	srv, _, _ := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := submitJob(t, ts.Client(), ts.URL, jobSimBody)
	if first.ID == "" || first.Kind != "simulate" {
		t.Fatalf("submit response %+v", first)
	}
	done := pollJob(t, ts.Client(), ts.URL, first.ID)
	if done.State != "done" || len(done.Result) == 0 {
		t.Fatalf("terminal job %+v", done)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(done.Result, &sr); err != nil || sr.Workload != "fpppp" {
		t.Fatalf("job result %s (err %v)", done.Result, err)
	}
	before := calls.Load()

	// Warm resubmission: same body (even with different key order) joins the
	// finished record — 200, result attached, zero engine work.
	reordered := `{"request":` + simBody + `,"kind":"simulate"}`
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", reordered)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d body %s", resp.StatusCode, out)
	}
	var again JobStatusResponse
	json.Unmarshal([]byte(out), &again)
	if again.ID != first.ID || again.State != "done" || string(again.Result) != string(done.Result) {
		t.Fatalf("resubmit %+v, want cached %+v", again, done)
	}
	if calls.Load() != before {
		t.Fatalf("warm resubmission ran %d new sims, want 0", calls.Load()-before)
	}
}

func TestJobValidationAndRoutes(t *testing.T) {
	fastSim(t)
	srv, _, _ := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submissions answer with the sync endpoints' error codes.
	cases := []struct {
		body string
		want int
		code string
	}{
		{`{"kind":"nope","request":{}}`, http.StatusBadRequest, "invalid_request"},
		{`{"kind":"simulate"}`, http.StatusBadRequest, "invalid_request"},
		{`{"kind":"simulate","request":{"workload":"not-a-workload"}}`, http.StatusBadRequest, "unknown_workload"},
		{`{"kind":"experiment","request":{"name":"corpus","n":99999}}`, http.StatusBadRequest, "invalid_request"},
		{`{"kind":"simulate","request":` + simBody + `,"extra":1}`, http.StatusBadRequest, "invalid_request"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", c.body)
		var eb ErrorBody
		json.Unmarshal([]byte(body), &eb)
		if resp.StatusCode != c.want || eb.Error.Code != c.code {
			t.Errorf("POST %s = %d (%s), want %d %s", c.body, resp.StatusCode, body, c.want, c.code)
		}
	}

	if resp, _ := getBody(t, ts.Client(), ts.URL+"/v1/jobs/zzzz"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id status %d, want 400", resp.StatusCode)
	}
	missing := strings.Repeat("ab", 32)
	if resp, _ := getBody(t, ts.Client(), ts.URL+"/v1/jobs/"+missing); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/jobs/"+missing, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
		t.Errorf("PATCH on job route: status %d Allow %q, want 405 with Allow", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// List endpoint shows the submitted job without its result payload.
	submitJob(t, ts.Client(), ts.URL, jobSimBody)
	_, out := getBody(t, ts.Client(), ts.URL+"/v1/jobs")
	var list []JobStatusResponse
	if err := json.Unmarshal([]byte(out), &list); err != nil || len(list) != 1 {
		t.Fatalf("list = %s (err %v), want one job", out, err)
	}
	if len(list[0].Result) != 0 {
		t.Fatalf("list leaked result payload: %s", list[0].Result)
	}
}

// jobEvent is one parsed SSE frame.
type jobEvent struct {
	id   int64
	name string
	data string
}

// readSSE parses frames from r until limit events are read (0 = until EOF).
// A frame holds only id:, event: and data: lines and ends at a blank line;
// anything else is an error.
func readSSE(t *testing.T, r io.Reader, limit int) []jobEvent {
	t.Helper()
	var (
		out   []jobEvent
		cur   jobEvent
		empty = true
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Errorf("bad SSE id line %q", line)
			}
			cur.id, empty = n, false
		case strings.HasPrefix(line, "event: "):
			cur.name, empty = strings.TrimPrefix(line, "event: "), false
		case strings.HasPrefix(line, "data: "):
			cur.data, empty = strings.TrimPrefix(line, "data: "), false
		case line == "":
			if empty {
				continue
			}
			if cur.name == "" {
				t.Errorf("SSE frame without an event name: %+v", cur)
			}
			out = append(out, cur)
			cur, empty = jobEvent{}, true
			if limit > 0 && len(out) >= limit {
				return out
			}
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
	if !empty {
		t.Errorf("unterminated SSE frame at EOF: %+v", cur)
	}
	return out
}

// TestJobEventsResume is the SSE durability story: a client watching a
// running experiment disconnects mid-stream, reconnects with Last-Event-ID,
// and observes the remaining events exactly once — no duplicates, no gaps.
func TestJobEventsResume(t *testing.T) {
	release, _ := gateSim(t)
	srv, _, mgr := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := submitJob(t, ts.Client(), ts.URL,
		`{"kind":"experiment","request":{"name":"corpus","seed":7,"n":2}}`)

	// First connection: read a few progress events, then drop the link
	// mid-experiment (the sims are still gated).
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	first := readSSE(t, resp.Body, 3)
	cancel()
	resp.Body.Close()
	if len(first) != 3 {
		t.Fatalf("read %d events before disconnect, want 3", len(first))
	}
	for i, ev := range first {
		if ev.id != int64(i)+1 || ev.name != "progress" {
			t.Fatalf("event %d = %+v, want progress with seq %d", i, ev, i+1)
		}
	}

	// Let the experiment finish while no one is watching.
	close(release)
	waitFor(t, "job done", func() bool {
		rec, _ := mgr.Get(job.ID)
		return rec.State == jobs.StateDone
	})

	// Reconnect where we left off, exactly like an EventSource would.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", strconv.FormatInt(first[len(first)-1].id, 10))
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rest := readSSE(t, resp2.Body, 0)
	if len(rest) == 0 {
		t.Fatal("no events after resume")
	}
	// Contiguous from the cursor: the first resumed event is seq 4, each
	// subsequent event increments, and the stream ends with the result.
	next := first[len(first)-1].id + 1
	for _, ev := range rest {
		if ev.id != next {
			t.Fatalf("resumed seq %d, want %d (events %+v)", ev.id, next, rest)
		}
		next++
	}
	last := rest[len(rest)-1]
	if last.name != "result" {
		t.Fatalf("final event %+v, want result", last)
	}
	var res ExperimentResult
	if err := json.Unmarshal([]byte(last.data), &res); err != nil || len(res.Corpus) == 0 {
		t.Fatalf("result event data %s (err %v)", last.data, err)
	}

	// A fresh replay from zero covers the full history with no seq gaps.
	resp3, body := getBody(t, ts.Client(), ts.URL+"/v1/jobs/"+job.ID+"/events")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d", resp3.StatusCode)
	}
	all := readSSE(t, strings.NewReader(body), 0)
	for i, ev := range all {
		if ev.id != int64(i)+1 {
			t.Fatalf("replay seq %d at index %d, want contiguous", ev.id, i)
		}
	}
	if all[len(all)-1].name != "result" {
		t.Fatalf("replay final event %+v", all[len(all)-1])
	}
}

// TestRetryAfterAlwaysParseable covers both 429 sources: the admission gate
// and the per-tenant submission limiter. Whatever the jitter rolls, the
// header must parse as a positive integer — an unparseable Retry-After turns
// polite clients into stampedes.
func TestRetryAfterAlwaysParseable(t *testing.T) {
	// gateSim before newJobsServer: its restore cleanup must run after the
	// manager has fully closed, or a draining runner races the global swap.
	release, _ := gateSim(t)
	srv, _, _ := newJobsServer(t, "", Config{
		MaxInFlight: 1,
		JobLimiter:  jobs.NewLimiter(0.001, 1),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Declared after ts.Close so the gate opens first: ts.Close waits for
	// the in-flight gated request.
	defer close(release)

	// Occupy the single admission slot with a gated synchronous simulate.
	go func() { postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simBody) }()
	waitFor(t, "slot occupied", func() bool { return len(srv.admit) == 1 })

	parsePositive := func(resp *http.Response) {
		t.Helper()
		raw := resp.Header.Get("Retry-After")
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			t.Fatalf("Retry-After %q not a positive integer (err %v)", raw, err)
		}
	}
	for i := 0; i < 10; i++ {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", simBody)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("gate shed status %d, want 429", resp.StatusCode)
		}
		parsePositive(resp)
	}

	// Tenant limiter: burst 1 at ~zero refill — first submit passes, the
	// rest are limited. (The submitted job is gated too; that's fine.)
	first, _ := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", jobSimBody)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", first.StatusCode)
	}
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", jobSimBody)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("limited submit status %d body %s, want 429", resp.StatusCode, body)
		}
		parsePositive(resp)
	}
	// /v1/experiment is a submission too: past the full admission gate, the
	// same tenant's limit answers it.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/experiment", `{"name":"fig5","workloads":["fpppp"]}`)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, "rate_limited") {
		t.Fatalf("limited experiment status %d body %s, want 429 rate_limited", resp.StatusCode, body)
	}
	parsePositive(resp)

	// Distinct tenants get distinct buckets.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"kind":"generate","request":{"generator":{"seed":9}}}`))
	req.Header.Set("X-Api-Key", "tenant-b")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh tenant submit status %d, want 202", resp.StatusCode)
	}
}

// TestHealthzJobsBlock: /healthz reports queue/running/done counts and the
// age of the oldest queued job.
func TestHealthzJobsBlock(t *testing.T) {
	release, _ := gateSim(t)
	srv, _, mgr := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	health := func() HealthResponse {
		t.Helper()
		_, body := getBody(t, ts.Client(), ts.URL+"/healthz")
		var h HealthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("healthz decode %q: %v", body, err)
		}
		if h.Jobs == nil {
			t.Fatalf("healthz has no jobs block: %s", body)
		}
		return h
	}
	if h := health(); h.Jobs.Queued != 0 || h.Jobs.Running != 0 || h.Jobs.Done != 0 {
		t.Fatalf("idle jobs block %+v", h.Jobs)
	}

	// Two gated simulate jobs on two runners: both run; a third queues.
	for i := 2; i <= 4; i++ {
		submitJob(t, ts.Client(), ts.URL,
			fmt.Sprintf(`{"kind":"simulate","request":{"workload":"fpppp","select":{},"machine":{"pus":%d}}}`, i))
	}
	waitFor(t, "two running one queued", func() bool {
		s := mgr.Stats()
		return s.Running == 2 && s.Queued == 1
	})
	h := health()
	if h.Jobs.Running != 2 || h.Jobs.Queued != 1 {
		t.Fatalf("busy jobs block %+v, want 2 running 1 queued", h.Jobs)
	}
	if h.Jobs.OldestQueuedMS < 0 {
		t.Fatalf("oldest_queued_ms %d negative", h.Jobs.OldestQueuedMS)
	}
	close(release)
	waitFor(t, "all done", func() bool { return mgr.Stats().Done == 3 })
	if h := health(); h.Jobs.Done != 3 || h.Jobs.Queued != 0 || h.Jobs.Running != 0 {
		t.Fatalf("drained jobs block %+v, want 3 done", h.Jobs)
	}
}

// TestJobCancelEndpoint cancels a queued job (both runners are pinned by
// gated jobs, so the third deterministically never starts). Cancellation of
// a running job is asynchronous-by-nature and covered in the jobs package.
func TestJobCancelEndpoint(t *testing.T) {
	release, _ := gateSim(t)
	srv, _, mgr := newJobsServer(t, "", Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(release)

	for pus := 2; pus <= 3; pus++ {
		submitJob(t, ts.Client(), ts.URL,
			fmt.Sprintf(`{"kind":"simulate","request":{"workload":"fpppp","select":{},"machine":{"pus":%d}}}`, pus))
	}
	waitFor(t, "both runners busy", func() bool { return mgr.Stats().Running == 2 })
	queued := submitJob(t, ts.Client(), ts.URL, jobSimBody)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d body %s", resp.StatusCode, blob)
	}
	var canceled JobStatusResponse
	json.Unmarshal(blob, &canceled)
	if canceled.State != "canceled" {
		t.Fatalf("cancel response state %q, want canceled (body %s)", canceled.State, blob)
	}
	if final := pollJob(t, ts.Client(), ts.URL, queued.ID); final.State != "canceled" {
		t.Fatalf("final state %q, want canceled", final.State)
	}
}

// TestJobSurvivesRestart drives durability through the HTTP layer: a job
// finished under one server is served — byte-identically, with zero new
// simulations — by a second server booted on the same journal directory.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	calls := fastSim(t)
	body := `{"kind":"experiment","request":{"name":"corpus","seed":3,"n":2}}`

	srvA, _, _ := newJobsServer(t, dir, Config{})
	tsA := httptest.NewServer(srvA.Handler())
	jobA := submitJob(t, tsA.Client(), tsA.URL, body)
	doneA := pollJob(t, tsA.Client(), tsA.URL, jobA.ID)
	tsA.Close()
	if doneA.State != "done" {
		t.Fatalf("job under first server %+v", doneA)
	}
	simsBefore := calls.Load()

	srvB, _, _ := newJobsServer(t, dir, Config{})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	_, out := getBody(t, tsB.Client(), tsB.URL+"/v1/jobs/"+jobA.ID)
	var replayed JobStatusResponse
	if err := json.Unmarshal([]byte(out), &replayed); err != nil {
		t.Fatalf("decode %q: %v", out, err)
	}
	if replayed.State != "done" || string(replayed.Result) != string(doneA.Result) {
		t.Fatalf("replayed job diverges:\nbefore: %+v\nafter:  %+v", doneA, replayed)
	}
	resp, out := postJSON(t, tsB.Client(), tsB.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart resubmit status %d body %s", resp.StatusCode, out)
	}
	if calls.Load() != simsBefore {
		t.Fatalf("restart re-ran %d sims, want 0", calls.Load()-simsBefore)
	}
}

// TestShutdownEndsEventStreams: a drain does not wait on open job streams.
// Their jobs belong to the manager, which requeues them when it stops, so a
// stream would otherwise hold Shutdown until its deadline.
func TestShutdownEndsEventStreams(t *testing.T) {
	release, calls := gateSim(t)
	srv, _, _ := newJobsServer(t, "", Config{})
	defer close(release) // before the manager's cleanup, which waits for the runner
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/experiment", "application/json",
		strings.NewReader(`{"name":"fig5","workloads":["fpppp"],"pus":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	waitFor(t, "sweep to reach the simulator", func() bool { return calls.Load() > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an open event stream: %v", err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
