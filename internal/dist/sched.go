package dist

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// SchedOptions configures a Scheduler; the zero value is usable.
type SchedOptions struct {
	// Lease bounds how long a pulled job may go unreported before it is
	// reassigned to another worker (0 = 2 minutes). Duplicate execution
	// after a false-positive reap is harmless — the simulator is
	// deterministic and the first report wins.
	Lease time.Duration
	// Metrics is the registry the scheduler counts into: dist_* scheduler
	// counters plus one jobs counter per worker name, which Stats and
	// WorkerJobs read. Nil gives the scheduler a private registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, stitches the local loop's executions into the
	// dispatching request's trace as worker.exec spans (remote workers carry
	// their own tracer; see WorkerOptions.Tracer). Dispatch itself is traced
	// off the caller's context and needs no tracer here.
	Tracer *span.Tracer
}

// SchedStats snapshots scheduler counters.
type SchedStats struct {
	// Workers and RemoteWorkers count live registered workers (Workers
	// includes the leader's local loop).
	Workers, RemoteWorkers int
	// Queued and Leased are current queue depths; Submitted and Completed
	// are lifetime totals.
	Queued, Leased       int
	Submitted, Completed int64
	// Reassigned counts jobs requeued after their lease expired.
	Reassigned int64
}

type taskState int

const (
	taskQueued taskState = iota
	taskLeased
	taskDone
)

// task is one scheduled job.
type task struct {
	key   string
	job   grid.Job
	state taskState
	lease time.Time // reassignment deadline when leased

	// sp is the dispatching caller's dist.dispatch span (nil untraced); sc
	// is its portable context, handed to whichever worker pulls the job so
	// the worker's spans stitch into the same trace.
	sp *span.Span
	sc span.SpanContext

	done chan struct{} // closed on completion
	res  *sim.Result
	err  error
}

// workerInfo tracks one registered worker's health and leases.
type workerInfo struct {
	remote   bool
	lastSeen time.Time
	leased   map[string]*task
	jobs     *obs.Counter // looked up by name, so it outlives a reap
}

type schedMetrics struct {
	submitted, completed, reassigned *obs.Counter
	workers, queued                  *obs.Gauge
}

// Scheduler is the leader-side job queue: one FIFO of leased jobs. It
// implements grid.Dispatcher: the leader's engine submits every
// cache-missing simulation job, workers pull and report over the Leader's
// HTTP surface (or in-process via RunLocal), and Dispatch callers block until
// the job's first report. All state lives behind one mutex; waiting happens
// on per-task channels, so the lock is never held across a job execution.
type Scheduler struct {
	lease time.Duration

	mu      sync.Mutex
	queue   []*task // queued tasks, FIFO; reaped leases rejoin at the head
	tasks   map[string]*task
	workers map[string]*workerInfo
	seq     int
	closed  bool

	reg    *obs.Registry
	m      schedMetrics
	tracer *span.Tracer
}

// NewScheduler returns an empty scheduler.
func NewScheduler(opts SchedOptions) *Scheduler {
	if opts.Lease <= 0 {
		opts.Lease = 2 * time.Minute
	}
	r := opts.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	return &Scheduler{
		lease:   opts.Lease,
		tasks:   make(map[string]*task),
		workers: make(map[string]*workerInfo),
		reg:     r,
		tracer:  opts.Tracer,
		m: schedMetrics{
			submitted:  r.Counter("dist_submitted_total", "jobs", "jobs submitted to the scheduler"),
			completed:  r.Counter("dist_completed_total", "jobs", "jobs completed by any worker"),
			reassigned: r.Counter("dist_reassigned_total", "jobs", "jobs requeued after a lease expired"),
			workers:    r.Gauge("dist_workers", "workers", "live registered workers (incl. the local loop)"),
			queued:     r.Gauge("dist_queued", "jobs", "jobs waiting for a worker"),
		},
	}
}

// Dispatch implements grid.Dispatcher: enqueue the job (or join an
// already-scheduled copy) and wait for the first report. A closed scheduler
// answers with an error wrapping grid.ErrDispatch, which sends the engine
// back to in-process compute.
func (s *Scheduler) Dispatch(ctx context.Context, key string, job grid.Job) (res *sim.Result, err error) {
	ctx, sp := span.Start(ctx, "dist.dispatch")
	defer func() { sp.End(err) }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: scheduler closed", grid.ErrDispatch)
	}
	t, ok := s.tasks[key]
	if !ok {
		t = &task{key: key, job: job, done: make(chan struct{})}
		if sp != nil {
			// The first dispatcher's span parents the worker's spans; a
			// joining duplicate still records its own wait below.
			t.sp = sp
			t.sc = sp.Context()
		}
		s.tasks[key] = t
		s.queue = append(s.queue, t)
		s.m.submitted.Inc()
		s.gaugeQueuedLocked()
	}
	s.mu.Unlock()

	select {
	case <-t.done:
		return t.res, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Register adds a worker and returns its assigned name and the lease the
// leader will hold it to.
func (s *Scheduler) Register(remote bool) (name string, lease time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = "local"
	if remote {
		s.seq++
		name = "w" + strconv.Itoa(s.seq)
	}
	s.admitLocked(name, remote, time.Now())
	return name, s.lease
}

// admitLocked adds a live worker. Its jobs counter is looked up by name, so
// a worker re-admitted after a reap keeps counting where it left off.
func (s *Scheduler) admitLocked(name string, remote bool, now time.Time) *workerInfo {
	w := &workerInfo{
		remote:   remote,
		lastSeen: now,
		leased:   make(map[string]*task),
		jobs: s.reg.Counter("dist_worker_"+name+"_jobs_total", "jobs",
			"jobs completed by worker "+name),
	}
	s.workers[name] = w
	s.m.workers.Set(int64(len(s.workers)))
	return w
}

// Pull leases worker the job at the head of the queue, whichever worker
// asks. The returned span context (zero when the dispatcher was untraced)
// lets the worker stitch its execution spans into the dispatcher's trace.
// ok=false means no work right now; closed=true tells the worker the run is
// over.
func (s *Scheduler) Pull(worker string) (key string, job grid.Job, sc span.SpanContext, ok, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// The worker will exit on seeing closed; deregister it now so the
		// leader can watch RemoteWorkers() drain to zero before tearing down
		// its listener.
		if _, ok := s.workers[worker]; ok {
			delete(s.workers, worker)
			s.m.workers.Set(int64(len(s.workers)))
		}
		return "", grid.Job{}, span.SpanContext{}, false, true
	}
	now := time.Now()
	s.reapLocked(now)
	w := s.workers[worker]
	if w == nil {
		// Reaped as dead (or never registered): re-admit so a slow-but-alive
		// worker keeps working after a false-positive reap.
		w = s.admitLocked(worker, worker != "local", now)
	}
	w.lastSeen = now

	t := s.popLocked()
	if t == nil {
		return "", grid.Job{}, span.SpanContext{}, false, false
	}
	t.state = taskLeased
	t.lease = now.Add(s.lease)
	w.leased[t.key] = t
	s.gaugeQueuedLocked()
	return t.key, t.job, t.sc, true, false
}

// popLocked removes the next still-queued task, discarding entries a racing
// report already completed (a reassigned job can finish under its original
// worker while its requeued copy waits in line).
func (s *Scheduler) popLocked() *task {
	for len(s.queue) > 0 {
		t := s.queue[0]
		s.queue[0] = nil // let a finished task go before the backing array does
		s.queue = s.queue[1:]
		if t.state == taskQueued {
			return t
		}
	}
	return nil
}

// gaugeQueuedLocked re-derives the queued gauge from the queue, so
// discarded duplicates can never make it drift.
func (s *Scheduler) gaugeQueuedLocked() {
	s.m.queued.Set(int64(s.queuedLocked()))
}

// queuedLocked counts the queue's live entries.
func (s *Scheduler) queuedLocked() int {
	n := 0
	for _, t := range s.queue {
		if t.state == taskQueued {
			n++
		}
	}
	return n
}

// Report completes a job. Late reports — after a reassignment raced the
// original worker to completion — are dropped: the first report wins, and
// the simulator's determinism makes the duplicates identical anyway.
func (s *Scheduler) Report(worker, key string, res *sim.Result, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.workers[worker]; w != nil {
		w.lastSeen = time.Now()
		delete(w.leased, key)
	}
	t := s.tasks[key]
	if t == nil || t.state == taskDone {
		return
	}
	t.state = taskDone
	t.sp.SetAttr("worker", worker)
	t.res = res
	if errMsg != "" {
		t.err = errors.New(errMsg)
	} else if res == nil {
		t.err = errors.New("dist: worker reported neither result nor error")
	}
	s.m.completed.Inc()
	if w := s.workers[worker]; w != nil {
		w.jobs.Inc()
	}
	close(t.done)
}

// reapLocked requeues expired leases and forgets workers that have gone
// silent. Called with s.mu held from Pull, so any live puller keeps the
// whole fleet honest without a background goroutine.
func (s *Scheduler) reapLocked(now time.Time) {
	for name, w := range s.workers {
		for key, t := range w.leased {
			if t.state == taskLeased && now.After(t.lease) {
				t.state = taskQueued
				s.queue = append([]*task{t}, s.queue...)
				s.m.reassigned.Inc()
				t.sp.Event("dist.lease-reassign", "worker", name)
				delete(w.leased, key)
			}
		}
		if len(w.leased) == 0 && now.Sub(w.lastSeen) > 3*s.lease {
			delete(s.workers, name)
			s.m.workers.Set(int64(len(s.workers)))
		}
	}
}

// Close ends the run: queued and in-flight submissions unblock with an
// error wrapping grid.ErrDispatch (their engines compute locally), and
// every subsequent Pull tells its worker to exit.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, t := range s.tasks {
		if t.state != taskDone {
			t.state = taskDone
			t.err = fmt.Errorf("%w: scheduler closed", grid.ErrDispatch)
			close(t.done)
		}
	}
	s.queue = nil
	s.m.queued.Set(0)
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		Queued:    s.queuedLocked(),
		Submitted: s.m.submitted.Value(), Completed: s.m.completed.Value(),
		Reassigned: s.m.reassigned.Value(),
	}
	for _, w := range s.workers {
		st.Workers++
		if w.remote {
			st.RemoteWorkers++
		}
		st.Leased += len(w.leased)
	}
	return st
}

// RemoteWorkers reports the live remote worker count (for /healthz).
func (s *Scheduler) RemoteWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.workers {
		if w.remote {
			n++
		}
	}
	return n
}

// WorkerJobs reports per-worker completed-job counts (for the end-of-run
// summary), keyed by worker name.
func (s *Scheduler) WorkerJobs() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.workers))
	for name, w := range s.workers {
		out[name] = w.jobs.Value()
	}
	return out
}

// RunLocal is the leader's own worker presence: it registers once as
// "local" and runs n concurrent pull-execute loops (n <= 0 means one), so
// the leader contributes its full worker pool to the fleet. compute is
// normally the leader engine's ComputeCtx, which resolves the partition
// dependency through the engine's shared single-flight but bypasses the
// sim-level memo (RunCtx already holds this job's single-flight leadership,
// so re-entering it would deadlock). RunLocal returns when ctx ends or the
// scheduler closes, and guarantees progress even with zero remote workers.
func (s *Scheduler) RunLocal(ctx context.Context, n int, compute func(context.Context, grid.Job) (*sim.Result, error)) {
	if n <= 0 {
		n = 1
	}
	worker, _ := s.Register(false)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.localLoop(ctx, worker, compute)
		}()
	}
	wg.Wait()
}

func (s *Scheduler) localLoop(ctx context.Context, worker string, compute func(context.Context, grid.Job) (*sim.Result, error)) {
	idle := time.NewTimer(0)
	if !idle.Stop() {
		<-idle.C
	}
	defer idle.Stop()
	for ctx.Err() == nil {
		key, job, sc, ok, closed := s.Pull(worker)
		if closed {
			return
		}
		if !ok {
			idle.Reset(5 * time.Millisecond)
			select {
			case <-idle.C:
			case <-ctx.Done():
				return
			}
			continue
		}
		res, err := s.localCompute(ctx, sc, job, compute)
		if err != nil && ctx.Err() != nil {
			// The run is being canceled; don't report the cancellation as a
			// job failure — Close will unwind every waiter.
			return
		}
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		s.Report(worker, key, res, errMsg)
	}
}

// localCompute runs one pulled job. When the scheduler has a tracer and the
// job carries a span context, the execution records as a worker.exec span in
// the dispatching request's trace — the local loop is a fleet member like
// any remote worker, and its share of the work should be just as visible.
func (s *Scheduler) localCompute(ctx context.Context, sc span.SpanContext, job grid.Job,
	compute func(context.Context, grid.Job) (*sim.Result, error)) (res *sim.Result, err error) {
	ctx, sp := s.tracer.StartRemote(ctx, sc, "worker.exec")
	if sp != nil {
		sp.SetAttr("worker", "local")
	}
	defer func() { sp.End(err) }()
	return compute(ctx, job)
}
