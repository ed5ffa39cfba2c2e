package dist

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim"
)

func testJob(pus int) grid.Job {
	return grid.Job{Workload: "compress", Config: sim.DefaultConfig(pus)}
}

// dispatchAsync submits a job from a goroutine and returns a channel with
// the outcome.
func dispatchAsync(ctx context.Context, s *Scheduler, key string, job grid.Job) chan error {
	out := make(chan error, 1)
	go func() {
		_, err := s.Dispatch(ctx, key, job)
		out <- err
	}()
	return out
}

func TestDispatchPullReport(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	worker, lease := s.Register(true)
	if worker != "w1" || lease != 2*time.Minute {
		t.Fatalf("Register = (%s, %v), want (w1, 2m)", worker, lease)
	}
	key := testKey(0)
	done := dispatchAsync(context.Background(), s, key, testJob(4))

	var gotKey string
	waitForCond(t, "job on the queue", func() bool {
		k, _, _, ok, _ := s.Pull(worker)
		gotKey = k
		return ok
	})
	if gotKey != key {
		t.Fatalf("pulled %s, want %s", gotKey, key)
	}
	s.Report(worker, key, testResult(1), "")
	if err := <-done; err != nil {
		t.Fatalf("Dispatch returned %v", err)
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want 1 submitted, 1 completed, nothing pending", st)
	}
}

// TestRegisterNames: the leader's local loop registers as "local" without
// using up a number, so remote workers are w1, w2, ... in arrival order.
func TestRegisterNames(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	var got []string
	for _, remote := range []bool{false, true, true} {
		name, _ := s.Register(remote)
		got = append(got, name)
	}
	if want := []string{"local", "w1", "w2"}; !slices.Equal(got, want) {
		t.Errorf("registered names %v, want %v", got, want)
	}
}

// TestFIFOOrderAndReapToHead: pulls hand out jobs in dispatch order no
// matter which worker asks, and a reaped lease rejoins the queue at its head,
// ahead of jobs that were dispatched after it.
func TestFIFOOrderAndReapToHead(t *testing.T) {
	const lease = 200 * time.Millisecond
	s := NewScheduler(SchedOptions{Lease: lease})
	w1, _ := s.Register(true)
	w2, _ := s.Register(true)

	// Sequence the dispatches so the queue order is deterministic —
	// concurrent dispatches may enqueue in either order.
	ctx := context.Background()
	var keys []string
	var done []chan error
	for i := 0; i < 4; i++ {
		keys = append(keys, testKey(i))
		done = append(done, dispatchAsync(ctx, s, keys[i], testJob(4)))
		waitForCond(t, "dispatch queued", func() bool { return s.Stats().Queued == i+1 })
	}

	pull := func(w, want string) {
		t.Helper()
		if k, _, _, ok, _ := s.Pull(w); !ok || k != want {
			t.Fatalf("%s pulled (%q, %v), want %q", w, k, ok, want)
		}
	}
	pull(w2, keys[0])
	pull(w1, keys[1])
	s.Report(w2, keys[0], testResult(1), "")

	// w1 never reports keys[1]. Once its lease has expired, the next pull
	// reaps it back to the head: it comes out before keys[2] and keys[3].
	time.Sleep(lease + 50*time.Millisecond)
	pull(w2, keys[1])
	if st := s.Stats(); st.Reassigned != 1 {
		t.Fatalf("reassigned = %d, want 1", st.Reassigned)
	}
	pull(w1, keys[2])
	pull(w2, keys[3])
	for _, k := range keys[1:] {
		s.Report(w2, k, testResult(1), "")
	}
	for i, d := range done {
		if err := <-d; err != nil {
			t.Fatalf("Dispatch %d: %v", i, err)
		}
	}
}

// TestLostWorkerReassignment is the acceptance-criteria property: a worker
// that pulls a job and disappears does not strand it — after the lease
// expires, another worker's pull reaps and re-pulls it, and the original
// Dispatch still completes. Run under -race.
func TestLostWorkerReassignment(t *testing.T) {
	s := NewScheduler(SchedOptions{Lease: 30 * time.Millisecond})
	lost, _ := s.Register(true)
	alive, _ := s.Register(true)

	key := testKey(0)
	done := dispatchAsync(context.Background(), s, key, testJob(4))
	waitForCond(t, "job queued", func() bool { return s.Stats().Queued == 1 })

	if k, _, _, ok, _ := s.Pull(lost); !ok || k != key {
		t.Fatalf("lost worker pulled (%q, %v), want the job", k, ok)
	}
	// The lost worker never reports. The live worker polls until the lease
	// expires and the job is reassigned to it.
	var got string
	waitForCond(t, "reassignment", func() bool {
		k, _, _, ok, _ := s.Pull(alive)
		got = k
		return ok
	})
	if got != key {
		t.Fatalf("reassigned %q, want %q", got, key)
	}
	if st := s.Stats(); st.Reassigned != 1 {
		t.Fatalf("reassigned = %d, want 1", st.Reassigned)
	}
	s.Report(alive, key, testResult(2), "")
	if err := <-done; err != nil {
		t.Fatalf("Dispatch after reassignment: %v", err)
	}
	// A late report from the original worker must be a no-op.
	s.Report(lost, key, testResult(99), "")
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("completed = %d after late duplicate report, want 1", st.Completed)
	}
}

// TestFirstReportWins: when a reassigned job races its original worker to
// completion, the first report's result is what Dispatch returns.
func TestFirstReportWins(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	w, _ := s.Register(true)
	key := testKey(0)
	out := make(chan *sim.Result, 1)
	go func() {
		res, _ := s.Dispatch(context.Background(), key, testJob(4))
		out <- res
	}()
	waitForCond(t, "job queued", func() bool {
		k, _, _, ok, _ := s.Pull(w)
		return ok && k == key
	})
	s.Report(w, key, testResult(1), "")
	s.Report(w, key, testResult(2), "")
	if res := <-out; res.IPC != 1 {
		t.Fatalf("Dispatch got IPC %v, want the first report (1)", res.IPC)
	}
}

func TestReportErrorPropagates(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	w, _ := s.Register(true)
	key := testKey(0)
	done := dispatchAsync(context.Background(), s, key, testJob(4))
	waitForCond(t, "job queued", func() bool {
		_, _, _, ok, _ := s.Pull(w)
		return ok
	})
	s.Report(w, key, nil, "workload exploded")
	err := <-done
	if err == nil || err.Error() != "workload exploded" {
		t.Fatalf("Dispatch error = %v, want the worker's message", err)
	}
	if errors.Is(err, grid.ErrDispatch) {
		t.Fatal("a real job failure must not look like dispatcher unavailability")
	}
}

// TestCloseFailsOpenToLocalCompute is the other acceptance-criteria
// property: an engine whose dispatcher has closed falls back to in-process
// simulation — ErrDispatch is a routing signal, not a failure. Run under
// -race.
func TestCloseFailsOpenToLocalCompute(t *testing.T) {
	restore := grid.SetSimForTesting(func(*core.Partition, sim.Config) (*sim.Result, error) {
		return testResult(5), nil
	})
	t.Cleanup(restore)

	s := NewScheduler(SchedOptions{})
	s.Close()
	if _, err := s.Dispatch(context.Background(), testKey(0), testJob(4)); !errors.Is(err, grid.ErrDispatch) {
		t.Fatalf("closed Dispatch error = %v, want grid.ErrDispatch", err)
	}

	eng := grid.New(grid.Options{Workers: 2, Dispatcher: s})
	res, err := eng.RunCtx(context.Background(), testJob(4))
	if err != nil || res.IPC != 5 {
		t.Fatalf("RunCtx = (%v, %v), want local compute despite closed dispatcher", res, err)
	}
	if st := eng.Stats(); st.Sims != 1 {
		t.Fatalf("sims = %d, want 1", st.Sims)
	}
}

// TestCloseUnblocksWaiters: pending Dispatches return ErrDispatch-wrapped
// errors on Close rather than hanging, and subsequent pulls say closed.
func TestCloseUnblocksWaiters(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	w, _ := s.Register(true)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Dispatch(context.Background(), testKey(i), testJob(4))
		}(i)
	}
	waitForCond(t, "4 queued", func() bool { return s.Stats().Queued == 4 })
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, grid.ErrDispatch) {
			t.Errorf("waiter %d: err = %v, want grid.ErrDispatch", i, err)
		}
	}
	if _, _, _, _, closed := s.Pull(w); !closed {
		t.Error("post-Close pull did not say closed")
	}
	if s.RemoteWorkers() != 0 {
		t.Error("worker not deregistered after observing closed")
	}
}

// TestDispatchJoinsDuplicate: two Dispatches of the same key share one task
// and both complete on a single report.
func TestDispatchJoinsDuplicate(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	w, _ := s.Register(true)
	key := testKey(0)
	d1 := dispatchAsync(context.Background(), s, key, testJob(4))
	d2 := dispatchAsync(context.Background(), s, key, testJob(4))
	waitForCond(t, "job queued", func() bool {
		_, _, _, ok, _ := s.Pull(w)
		return ok
	})
	if st := s.Stats(); st.Submitted != 1 {
		t.Fatalf("submitted = %d, want 1 (duplicate joined)", st.Submitted)
	}
	s.Report(w, key, testResult(1), "")
	if err1, err2 := <-d1, <-d2; err1 != nil || err2 != nil {
		t.Fatalf("joined dispatches = %v, %v", err1, err2)
	}
}

// TestRunLocalDrivesJobs: with no remote workers at all, RunLocal alone
// completes dispatched jobs.
func TestRunLocalDrivesJobs(t *testing.T) {
	s := NewScheduler(SchedOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loopDone sync.WaitGroup
	loopDone.Add(1)
	go func() {
		defer loopDone.Done()
		s.RunLocal(ctx, 2, func(_ context.Context, job grid.Job) (*sim.Result, error) {
			return testResult(float64(job.Config.NumPUs)), nil
		})
	}()
	res, err := s.Dispatch(ctx, testKey(0), testJob(8))
	if err != nil || res.IPC != 8 {
		t.Fatalf("Dispatch via RunLocal = (%v, %v), want IPC 8", res, err)
	}
	s.Close()
	loopDone.Wait()
}

// waitForCond polls cond up to 2s.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReadmittedWorkerKeepsItsJobCount: a worker reaped as silent and then
// re-admitted by its next pull keeps counting, in WorkerJobs and in its
// dist_worker_<name>_jobs_total metric, the jobs it completed before the
// reap as well as after it.
func TestReadmittedWorkerKeepsItsJobCount(t *testing.T) {
	const lease = 20 * time.Millisecond
	reg := obs.NewRegistry()
	s := NewScheduler(SchedOptions{Lease: lease, Metrics: reg})
	w, _ := s.Register(true)
	other, _ := s.Register(true)

	complete := func(i int) {
		t.Helper()
		key := testKey(i)
		done := dispatchAsync(context.Background(), s, key, testJob(4))
		waitForCond(t, "job queued", func() bool { return s.Stats().Queued == 1 })
		if k, _, _, ok, _ := s.Pull(w); !ok || k != key {
			t.Fatalf("%s pulled (%q, %v), want %q", w, k, ok, key)
		}
		s.Report(w, key, testResult(1), "")
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	complete(0)
	// w goes silent past three leases; the other worker's pull reaps it.
	time.Sleep(3*lease + 20*time.Millisecond)
	s.Pull(other)
	if _, ok := s.WorkerJobs()[w]; ok {
		t.Fatalf("%s still registered after going silent", w)
	}
	complete(1)

	if got := s.WorkerJobs()[w]; got != 2 {
		t.Errorf("WorkerJobs()[%s] = %d, want 2 (one job before the reap, one after)", w, got)
	}
	metric := "dist_worker_" + w + "_jobs_total"
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == metric {
			if *m.Value != 2 {
				t.Errorf("%s = %d, want 2", metric, *m.Value)
			}
			return
		}
	}
	t.Errorf("%s missing from the registry", metric)
}
