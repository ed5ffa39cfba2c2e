package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim"
)

// fleetSim installs a deterministic fake sim, slow enough that the local
// loop cannot drain the queue before the workers pull their share.
func fleetSim(t *testing.T) {
	restore := grid.SetSimForTesting(func(part *core.Partition, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(5 * time.Millisecond)
		return &sim.Result{
			IPC:    float64(cfg.NumPUs) + float64(len(part.Tasks))/1000,
			Cycles: int64(cfg.NumPUs * 100),
			Instrs: uint64(len(part.Tasks)),
		}, nil
	})
	t.Cleanup(restore)
}

// fleetJobs is the job grid the fleet tests run.
func fleetJobs() []grid.Job {
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
	return jobs
}

// runJobs runs every job through eng and collects the results by index.
func runJobs(ctx context.Context, eng *grid.Engine, jobs []grid.Job) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(jobs))
	err := grid.RunAll(ctx, len(jobs), func(i int) error {
		res, err := eng.RunCtx(ctx, jobs[i])
		out[i] = res
		return err
	})
	return out, err
}

// serialResults is the reference every distributed run must match.
func serialResults(t *testing.T, jobs []grid.Job) []*sim.Result {
	t.Helper()
	out, err := runJobs(context.Background(), grid.New(grid.Options{Workers: 2}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameResults checks distributed results against a serial engine's, index
// for index: indexed collection makes distributed output identical to
// serial regardless of which process executed each job.
func sameResults(t *testing.T, got, serial []*sim.Result) {
	t.Helper()
	for i := range serial {
		if got[i] == nil {
			t.Fatalf("job %d: nil result", i)
		}
		if got[i].IPC != serial[i].IPC || got[i].Cycles != serial[i].Cycles || got[i].Instrs != serial[i].Instrs {
			t.Errorf("job %d: distributed %+v != serial %+v", i, got[i], serial[i])
		}
	}
}

// startWorker runs one HTTP worker with no cache tier; its Run error lands
// on errs.
func startWorker(ctx context.Context, t *testing.T, leaderURL string, errs chan<- error) {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		Leader:       leaderURL,
		Engine:       grid.New(grid.Options{Workers: 2}),
		Concurrency:  2,
		PollInterval: 5 * time.Millisecond,
		Logger:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { errs <- w.Run(ctx) }()
}

// TestDistributedEndToEnd drives the whole stack in-process: a leader
// (scheduler + HTTP surface + local loop) and two HTTP workers, running a
// small job grid. The distributed results must equal a serial engine's
// results index for index, and the remote workers must have actually
// participated.
func TestDistributedEndToEnd(t *testing.T) {
	fleetSim(t)
	jobs := fleetJobs()
	serial := serialResults(t, jobs)

	// Distributed: leader engine + scheduler + HTTP surface.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := NewScheduler(SchedOptions{})
	leader := NewLeader(sched, LeaderOptions{PollWait: 50 * time.Millisecond})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	eng := grid.New(grid.Options{Workers: 2, Dispatcher: sched})
	var localDone sync.WaitGroup
	localDone.Add(1)
	go func() {
		defer localDone.Done()
		sched.RunLocal(ctx, 1, eng.ComputeCtx)
	}()

	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		startWorker(ctx, t, ts.URL, workerErrs)
	}

	got, err := runJobs(ctx, eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, serial)

	perWorker := sched.WorkerJobs()
	sched.Close()
	localDone.Wait()
	for i := 0; i < 2; i++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker %d exited with %v, want clean close", i, err)
		}
	}

	remoteJobs := int64(0)
	for name, n := range perWorker {
		if name != "local" {
			remoteJobs += n
		}
	}
	if remoteJobs == 0 {
		t.Error("remote workers executed 0 jobs; the fleet did not participate")
	}
	t.Logf("job split: %v", perWorker)

	st := sched.Stats()
	if st.Completed != st.Submitted {
		t.Errorf("completed %d != submitted %d", st.Completed, st.Submitted)
	}
}

// routeCounter counts the requests a handler serves by route; every
// /v1/cache/{key} request counts under "/v1/cache/".
type routeCounter struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func (c *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.URL.Path
	if strings.HasPrefix(route, "/v1/cache/") {
		route = "/v1/cache/"
	}
	c.mu.Lock()
	c.n[route]++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *routeCounter) count(route string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[route]
}

// TestFleetReportsEachResultOnce runs Figure 5 on the real simulator through
// a leader with no local loop and two HTTP workers with no cache tier. The
// printed figure equals a serial engine's, every remote result comes back
// in exactly one report and no cache request, and the leader's engine
// stores each reported result in its own disk tier.
func TestFleetReportsEachResultOnce(t *testing.T) {
	wls, pus := []string{"compress", "tomcatv"}, []int{4, 8}
	serial, err := experiment.Figure5(experiment.NewRunnerOn(grid.New(grid.Options{Workers: 2})), pus, wls)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := NewScheduler(SchedOptions{})
	routes := &routeCounter{
		h: NewLeader(sched, LeaderOptions{PollWait: 20 * time.Millisecond}).Handler(),
		n: map[string]int{},
	}
	ts := httptest.NewServer(routes)
	defer ts.Close()
	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		startWorker(ctx, t, ts.URL, workerErrs)
	}

	dir := t.TempDir()
	eng := grid.New(grid.Options{Workers: 2, Cache: NewDiskTier(dir), Dispatcher: sched})
	cells, err := experiment.Figure5(experiment.NewRunnerOn(eng).WithContext(ctx), pus, wls)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := experiment.FormatFigure5(cells), experiment.FormatFigure5(serial); got != want {
		t.Errorf("distributed Figure 5 differs from serial:\n%s\nwant:\n%s", got, want)
	}

	sched.Close()
	for i := 0; i < 2; i++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker %d exited with %v, want clean close", i, err)
		}
	}
	st := sched.Stats()
	if st.Submitted != 32 || st.Completed != st.Submitted {
		t.Errorf("submitted %d, completed %d; want all 32 Figure 5 sims dispatched and completed",
			st.Submitted, st.Completed)
	}
	if n := routes.count("/v1/cache/"); n != 0 {
		t.Errorf("leader saw %d /v1/cache/ requests, want 0", n)
	}
	if n := routes.count("/v1/dist/report"); n != int(st.Submitted) {
		t.Errorf("leader saw %d reports for %d jobs, want exactly one each", n, st.Submitted)
	}
	artifacts, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(artifacts) != int(st.Submitted) {
		t.Errorf("leader disk tier holds %d artifacts, want one per job (%d)", len(artifacts), st.Submitted)
	}
}

// postProtocol sends one worker-protocol request the way a bare client
// would and decodes the leader's answer.
func postProtocol(t *testing.T, url string, body, out any) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", url, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}

// TestWorkerDiesOverHTTP: a worker that registers over HTTP, takes a job
// and dies without reporting does not strand it. A live worker's long-poll
// on /v1/dist/pull reaps the expired lease, the real worker and the
// leader's local loop finish the grid, the results equal a serial run's,
// and the real worker still exits cleanly when the run closes.
func TestWorkerDiesOverHTTP(t *testing.T) {
	fleetSim(t)
	jobs := fleetJobs()
	serial := serialResults(t, jobs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := NewScheduler(SchedOptions{Lease: 100 * time.Millisecond})
	leader := NewLeader(sched, LeaderOptions{PollWait: 20 * time.Millisecond})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	eng := grid.New(grid.Options{Workers: 2, Dispatcher: sched})

	type outcome struct {
		res []*sim.Result
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := runJobs(ctx, eng, jobs)
		ran <- outcome{res, err}
	}()

	// The doomed worker speaks the raw protocol and takes the first job
	// before anyone else is pulling, then never reports it.
	var reg RegisterResponse
	postProtocol(t, ts.URL+"/v1/dist/register", RegisterRequest{Hint: "doomed"}, &reg)
	var pulled PullResponse
	for pulled.Key == "" {
		pulled = PullResponse{}
		postProtocol(t, ts.URL+"/v1/dist/pull", PullRequest{Worker: reg.Worker}, &pulled)
		if pulled.Closed {
			t.Fatal("run closed before the doomed worker got a job")
		}
	}

	var localDone sync.WaitGroup
	localDone.Add(1)
	go func() {
		defer localDone.Done()
		sched.RunLocal(ctx, 1, eng.ComputeCtx)
	}()
	workerErr := make(chan error, 1)
	startWorker(ctx, t, ts.URL, workerErr)

	var got outcome
	select {
	case got = <-ran:
	case <-time.After(30 * time.Second):
		t.Fatalf("grid stalled: job %s leased to the dead worker was never reassigned", pulled.Key)
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	sameResults(t, got.res, serial)
	if st := sched.Stats(); st.Reassigned < 1 {
		t.Errorf("reassigned = %d, want the dead worker's lease reaped", st.Reassigned)
	}

	sched.Close()
	localDone.Wait()
	if err := <-workerErr; err != nil {
		t.Errorf("worker exited with %v, want clean close", err)
	}
}

// TestPullRejectsUnassignedNames: a pull re-admits its worker and names a
// jobs metric after it, so the leader refuses names Register never hands
// out, and no metric appears for them. A well-formed name is re-admitted
// even if this leader never assigned it.
func TestPullRejectsUnassignedNames(t *testing.T) {
	reg := obs.NewRegistry()
	leader := NewLeader(NewScheduler(SchedOptions{Metrics: reg}), LeaderOptions{PollWait: time.Millisecond})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	for name, want := range map[string]int{
		"":                 http.StatusBadRequest,
		"local":            http.StatusBadRequest,
		"w":                http.StatusBadRequest,
		"w1 x":             http.StatusBadRequest,
		"w1\nevil_total 1": http.StatusBadRequest,
		"w7":               http.StatusOK,
	} {
		blob, _ := json.Marshal(PullRequest{Worker: name})
		resp, err := http.Post(ts.URL+"/v1/dist/pull", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("pull as %q = %d, want %d", name, resp.StatusCode, want)
		}
	}
	for _, m := range reg.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "dist_worker_") && m.Name != "dist_worker_w7_jobs_total" {
			t.Errorf("pull minted metric %q", m.Name)
		}
	}
}
