package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
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

// startWorker runs one HTTP worker whose cache tiers point back at the
// leader; its Run error lands on errs.
func startWorker(ctx context.Context, t *testing.T, leaderURL string, errs chan<- error) {
	t.Helper()
	weng := grid.New(grid.Options{
		Workers: 2,
		Cache:   NewTiered(NewLRU(256), NewRemoteCache(leaderURL, RemoteOptions{Backoff: time.Millisecond})),
	})
	w, err := NewWorker(WorkerOptions{
		Leader:       leaderURL,
		Engine:       weng,
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
// (scheduler + HTTP surface + local loop) and two HTTP workers whose cache
// tiers point back at the leader, running a small job grid. The distributed
// results must equal a serial engine's results index for index, and the
// remote workers must have actually participated.
func TestDistributedEndToEnd(t *testing.T) {
	fleetSim(t)
	jobs := fleetJobs()
	serial := serialResults(t, jobs)

	// Distributed: leader engine + scheduler + HTTP surface.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := NewScheduler(SchedOptions{})
	cache := NewTiered(NewLRU(256))
	leader := NewLeader(sched, LeaderOptions{Cache: cache, PollWait: 50 * time.Millisecond})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	eng := grid.New(grid.Options{Workers: 2, Cache: cache, Dispatcher: sched})
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
	cache := NewTiered(NewLRU(256))
	leader := NewLeader(sched, LeaderOptions{Cache: cache, PollWait: 20 * time.Millisecond})
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()
	eng := grid.New(grid.Options{Workers: 2, Cache: cache, Dispatcher: sched})

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
