package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
)

// Executor runs one job kind. It receives the job's canonical spec and an
// emit function for progress events (each call appends one event to the
// job's stream); the returned value is marshaled as the job's terminal
// result. A ctx error return means the job was canceled or the process is
// shutting down — the manager distinguishes the two and either finalizes
// the job as canceled or requeues it for the next start.
type Executor func(ctx context.Context, spec Spec, emit EmitFunc) (any, error)

// EmitFunc appends one named event to the running job's stream. The value
// is marshaled to JSON immediately; marshal failures drop the event (a
// progress delta is not worth failing a sweep over).
type EmitFunc func(name string, v any)

// Options configures a Manager.
type Options struct {
	// Runners bounds concurrently executing jobs (0 = 2). This is a bound on
	// jobs, not simulations — each executing job fans out into the grid
	// engine, which applies its own worker bound.
	Runners int
	// Dir enables the durability journal under this directory ("" = memory
	// only; jobs do not survive a restart). Convention: <cache-dir>/jobs.
	Dir string
	// Executors maps job kinds to their implementations. Submit rejects
	// kinds with no executor.
	Executors map[string]Executor
	// Metrics is the registry the manager counts the ms_jobs_* catalog into
	// (nil = a private registry).
	Metrics *obs.Registry
	// Tracer, when non-nil, opens a jobs.exec root span per execution, so
	// async work shows up in the flight recorder like request work does.
	Tracer *span.Tracer
	// Weights are per-tenant fair-queue weights (unlisted tenants weigh 1).
	Weights map[string]float64
	// Cost estimates a job's relative schedule cost for the fair queue
	// (nil = every job costs 1). Only ordering is affected, never admission.
	Cost func(spec Spec) float64
	// MaxJobs bounds retained records; beyond it the oldest terminal
	// records (and their event streams) are evicted (0 = 4096).
	MaxJobs int
}

// jobState is one job's in-memory state: the durable record plus the
// process-local event stream and cancellation handle.
type jobState struct {
	rec      Record
	events   []Event       // the current attempt's stream
	seq      int64         // last Seq assigned; never reused within the process
	notify   chan struct{} // closed and replaced on every append
	cancel   context.CancelFunc
	canceled bool // explicit DELETE, distinguishes cancel from shutdown
}

// jobMetrics is the ms_jobs_* catalog, resolved once at NewManager.
type jobMetrics struct {
	submitted, shared, done, failed *obs.Counter
	canceled, requeued, replayed    *obs.Counter
	queued, running                 *obs.Gauge
	queueWait, execWall             *obs.Histogram
}

func newJobMetrics(r *obs.Registry) jobMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return jobMetrics{
		submitted: r.Counter("ms_jobs_submitted_total", "jobs", "job submissions that created or reset a record"),
		shared:    r.Counter("ms_jobs_shared_total", "jobs", "submissions answered by an existing record (dedup)"),
		done:      r.Counter("ms_jobs_done_total", "jobs", "jobs finished successfully"),
		failed:    r.Counter("ms_jobs_failed_total", "jobs", "jobs finished with an error"),
		canceled:  r.Counter("ms_jobs_canceled_total", "jobs", "jobs canceled by request"),
		requeued:  r.Counter("ms_jobs_requeued_total", "jobs", "running jobs requeued by shutdown"),
		replayed:  r.Counter("ms_jobs_replayed_total", "jobs", "jobs resurrected from the journal at startup"),
		queued:    r.Gauge("ms_jobs_queued", "jobs", "jobs waiting in the fair queue"),
		running:   r.Gauge("ms_jobs_running", "jobs", "jobs executing right now"),
		queueWait: r.Histogram("ms_jobs_queue_wait_us", "us",
			"time a job waited in the fair queue before a runner took it", obs.ExpBuckets(100, 4, 12)),
		execWall: r.Histogram("ms_jobs_exec_wall_us", "us",
			"wall time of one job execution", obs.ExpBuckets(100, 4, 14)),
	}
}

// Manager owns the job table, the fair queue, the runner pool, and the
// journal. Create one with NewManager, launch the runners with Start, and
// stop them with Close (idempotent).
type Manager struct {
	opt     Options
	journal *journal // nil = memory only
	queue   *fairQueue
	m       jobMetrics
	tracer  *span.Tracer

	mu   sync.Mutex
	jobs map[string]*jobState

	startOnce sync.Once
	stopOnce  sync.Once
	stopping  chan struct{}
	wg        sync.WaitGroup
}

// Stats is a snapshot of the job table for health reporting.
type Stats struct {
	Queued, Running, Done, Failed, Canceled int
	// OldestQueued is how long the longest-waiting queued job has been
	// waiting (0 when nothing is queued).
	OldestQueued time.Duration
}

// NewManager builds a manager and, when opts.Dir is set, replays the
// journal: terminal records are served again (warm resubmission returns
// their cached results), queued and interrupted jobs are re-enqueued for
// the runners Start will launch. The journal is compacted as part of
// replay, so it holds one line per surviving job rather than full history.
func NewManager(opts Options) (*Manager, error) {
	if opts.Runners <= 0 {
		opts.Runners = 2
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	if len(opts.Executors) == 0 {
		return nil, errors.New("jobs: Options.Executors is required")
	}
	m := &Manager{
		opt:      opts,
		queue:    newFairQueue(opts.Weights),
		m:        newJobMetrics(opts.Metrics),
		tracer:   opts.Tracer,
		jobs:     make(map[string]*jobState),
		stopping: make(chan struct{}),
	}
	if opts.Dir != "" {
		recs, err := replayJournal(opts.Dir)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			st := &jobState{rec: rec, notify: make(chan struct{})}
			switch {
			case rec.State.Terminal():
				// Served as-is; its result survived the restart, and its
				// stream replays as the one terminal event.
				st.appendTerminal()
			default:
				// queued stays queued; running was interrupted — either by a
				// graceful shutdown (which already journaled it back to
				// queued) or by a crash. Both resume from the top; the grid
				// cache makes the replayed prefix nearly free.
				st.rec.State = StateQueued
				m.queue.enqueue(rec.Tenant, rec.ID, m.cost(rec.Spec), time.Now())
			}
			m.jobs[rec.ID] = st
			m.m.replayed.Inc()
		}
		if err := compactJournal(opts.Dir, recsSnapshot(m)); err != nil {
			return nil, err
		}
		j, err := openJournal(opts.Dir)
		if err != nil {
			return nil, err
		}
		m.journal = j
	}
	m.gauges()
	return m, nil
}

// recsSnapshot lists current records for compaction (order: creation time).
func recsSnapshot(m *Manager) []Record {
	out := make([]Record, 0, len(m.jobs))
	for _, st := range m.jobs {
		out = append(out, st.rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (m *Manager) cost(spec Spec) float64 {
	if m.opt.Cost == nil {
		return 1
	}
	if c := m.opt.Cost(spec); c > 0 {
		return c
	}
	return 1
}

// Start launches the runner pool. Runners drain the fair queue until ctx
// ends or Close is called; every job execution derives its context from
// ctx, so cancelling it (the process shutting down) requeues running jobs
// rather than failing them. Start is idempotent — only the first call
// launches anything.
func (m *Manager) Start(ctx context.Context) {
	m.startOnce.Do(func() {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			select {
			case <-ctx.Done():
			case <-m.stopping:
			}
			m.queue.close()
		}()
		for i := 0; i < m.opt.Runners; i++ {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				for {
					id, waited, ok := m.queue.dequeue()
					if !ok {
						return
					}
					m.m.queueWait.Observe(waited.Microseconds())
					m.run(ctx, id)
				}
			}()
		}
	})
}

// Close stops the runners and waits for in-flight executions to unwind.
// Running jobs are journaled back to queued (they resume on the next
// start); the queue's backlog stays in the journal the same way. Close is
// safe to call without Start and more than once.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.stopping) })
	m.queue.close()
	m.wg.Wait()
	if m.journal != nil {
		m.journal.close()
	}
}

// ErrUnknownKind marks a submission whose kind has no registered executor.
var ErrUnknownKind = errors.New("jobs: unknown job kind")

// Submit enqueues (or joins) the job described by spec. The returned record
// is a snapshot; created reports whether this call scheduled new work
// (false when an identical job is already queued, running, or done — the
// content-address dedup that makes two tenants submitting the same sweep
// share one execution). Submitting a failed or canceled job resets it to
// queued for another attempt.
func (m *Manager) Submit(tenant string, spec Spec) (Record, bool, error) {
	if _, ok := m.opt.Executors[spec.Kind]; !ok {
		return Record{}, false, fmt.Errorf("%w %q", ErrUnknownKind, spec.Kind)
	}
	select {
	case <-m.stopping:
		return Record{}, false, errors.New("jobs: manager is shutting down")
	default:
	}
	id := IDFor(spec)
	now := time.Now()
	m.mu.Lock()
	st, ok := m.jobs[id]
	if ok {
		switch st.rec.State {
		case StateQueued, StateRunning, StateDone:
			rec := st.rec
			m.mu.Unlock()
			m.m.shared.Inc()
			return rec, false, nil
		case StateFailed, StateCanceled:
			st.rec.State = StateQueued
			st.rec.Error = ""
			st.rec.Result = nil
			st.rec.Finished = time.Time{}
			st.canceled = false
			// The retry gets a fresh stream: a watcher joining now must not
			// read the old attempt's terminal event as this one's.
			st.events = nil
			rec := st.rec
			m.persistLocked(rec)
			m.queue.enqueue(tenant, id, m.cost(spec), now)
			m.mu.Unlock()
			m.submitted()
			return rec, true, nil
		}
	}
	st = &jobState{
		rec: Record{
			ID: id, Spec: spec, Tenant: tenant,
			State: StateQueued, Created: now,
		},
		notify: make(chan struct{}),
	}
	m.jobs[id] = st
	m.evictLocked()
	rec := st.rec
	m.persistLocked(rec)
	m.queue.enqueue(tenant, id, m.cost(spec), now)
	m.mu.Unlock()
	m.submitted()
	return rec, true, nil
}

func (m *Manager) submitted() {
	m.m.submitted.Inc()
	m.gauges()
}

// evictLocked drops the oldest terminal records above the retention bound;
// callers hold m.mu. Live (queued/running) jobs are never evicted.
func (m *Manager) evictLocked() {
	excess := len(m.jobs) - m.opt.MaxJobs
	if excess <= 0 {
		return
	}
	type cand struct {
		id string
		at time.Time
	}
	var cands []cand
	for id, st := range m.jobs {
		if st.rec.State.Terminal() {
			cands = append(cands, cand{id, st.rec.Finished})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].at.Equal(cands[j].at) {
			return cands[i].at.Before(cands[j].at)
		}
		return cands[i].id < cands[j].id
	})
	for i := 0; i < len(cands) && excess > 0; i++ {
		delete(m.jobs, cands[i].id)
		excess--
	}
}

// Get returns a snapshot of one job's record.
func (m *Manager) Get(id string) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.jobs[id]
	if !ok {
		return Record{}, false
	}
	return st.rec, true
}

// List returns snapshots of every retained record, newest first.
func (m *Manager) List() []Record {
	m.mu.Lock()
	out := make([]Record, 0, len(m.jobs))
	for _, st := range m.jobs {
		out = append(out, st.rec)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Cancel requests cancellation of a job. A queued job cancels immediately;
// a running job's context is canceled and it finalizes as canceled when the
// executor unwinds; terminal jobs are left as they are. The returned record
// reflects the state after this call.
func (m *Manager) Cancel(id string) (Record, bool) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Record{}, false
	}
	switch st.rec.State {
	case StateQueued:
		// A runner may already hold the ID between its dequeue and run();
		// run() skips any job no longer queued under m.mu, so finalizing here
		// is what makes the cancellation land either way.
		m.queue.remove(id)
		st.rec.State = StateCanceled
		st.rec.Error = "canceled before execution"
		st.rec.Finished = time.Now()
		st.canceled = true
		rec := st.rec
		m.persistLocked(rec)
		st.appendTerminal()
		m.mu.Unlock()
		m.m.canceled.Inc()
		m.gauges()
		return rec, true
	case StateRunning:
		st.canceled = true
		if st.cancel != nil {
			st.cancel()
		}
	}
	rec := st.rec
	m.mu.Unlock()
	return rec, true
}

// Stats snapshots the job table for /healthz.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	var s Stats
	for _, st := range m.jobs {
		switch st.rec.State {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCanceled:
			s.Canceled++
		}
	}
	m.mu.Unlock()
	if at, ok := m.queue.oldest(); ok {
		s.OldestQueued = time.Since(at)
	}
	return s
}

// EventsSince returns the job's events with Seq > after, a channel that
// closes when another event arrives, and whether the job is terminal. The
// SSE handler loops on it: drain, flush, wait — and a client that
// reconnects with Last-Event-ID=N simply calls EventsSince(id, N).
//
// Sequence numbers restart with each process, so a cursor may come from an
// earlier one. Within a process st.seq never goes backwards, so a cursor
// past it is such a cursor and replays from the start; and a cursor at the
// end of a finished stream gets the terminal event again. Duplicates are the
// safe failure mode; a stream that ends without its terminal event is not.
func (m *Manager) EventsSince(id string, after int64) (evs []Event, more <-chan struct{}, terminal bool, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, exists := m.jobs[id]
	if !exists {
		return nil, nil, false, false
	}
	if after > st.seq {
		after = 0
	}
	for _, e := range st.events {
		if e.Seq > after {
			evs = append(evs, e)
		}
	}
	terminal = st.rec.State.Terminal()
	if terminal && len(evs) == 0 && len(st.events) > 0 {
		evs = append(evs, st.events[len(st.events)-1])
	}
	return evs, st.notify, terminal, true
}

// appendEvent appends one event to a job's stream and wakes watchers.
func (m *Manager) appendEvent(id, name string, data json.RawMessage) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.jobs[id]; ok {
		st.appendEvent(name, data)
	}
}

// appendEvent appends one event to the stream and wakes watchers; callers
// hold m.mu.
func (st *jobState) appendEvent(name string, data json.RawMessage) {
	st.seq++
	st.events = append(st.events, Event{Seq: st.seq, Name: name, Data: data})
	close(st.notify)
	st.notify = make(chan struct{})
}

// appendTerminal appends the event that ends the stream of a job in a
// terminal state: its result, or an error naming how it ended. Callers hold
// m.mu.
func (st *jobState) appendTerminal() {
	switch st.rec.State {
	case StateDone:
		st.appendEvent("result", st.rec.Result)
	case StateCanceled:
		st.appendEvent("error", errorEvent("canceled", st.rec.Error))
	default:
		st.appendEvent("error", errorEvent("failed", st.rec.Error))
	}
}

// errorEvent is the payload of a job's terminal error event.
func errorEvent(code, message string) json.RawMessage {
	blob, err := json.Marshal(map[string]any{"code": code, "message": message})
	if err != nil {
		blob = []byte(`{}`)
	}
	return blob
}

// persistLocked journals one record snapshot (no-op without a journal).
// Callers hold m.mu across the state change and this append, so a record's
// lines land in the order its state changed and no reader sees a state
// before its line is durable — replay is last-wins, so either slip would
// bring the job back in a stale state. Append errors are deliberately
// swallowed after the open succeeded: a full disk degrades durability, not
// availability, matching the cache's posture.
func (m *Manager) persistLocked(rec Record) {
	if m.journal == nil {
		return
	}
	_ = m.journal.append(rec)
}

func (m *Manager) gauges() {
	m.mu.Lock()
	var queued, running int64
	for _, st := range m.jobs {
		switch st.rec.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	m.mu.Unlock()
	m.m.queued.Set(queued)
	m.m.running.Set(running)
}

// run executes one dequeued job end to end.
func (m *Manager) run(ctx context.Context, id string) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok || st.rec.State != StateQueued {
		// Canceled (or evicted) between dequeue and here.
		m.mu.Unlock()
		return
	}
	jobCtx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	st.rec.State = StateRunning
	st.rec.Started = time.Now()
	st.rec.Attempts++
	rec := st.rec
	m.persistLocked(rec)
	exec := m.opt.Executors[rec.Spec.Kind]
	m.mu.Unlock()
	defer cancel()
	m.gauges()

	var sp *span.Span
	if m.tracer != nil {
		jobCtx, sp = m.tracer.StartRoot(jobCtx, "jobs.exec")
		sp.SetAttr("job", rec.ID)
		sp.SetAttr("kind", rec.Spec.Kind)
		sp.SetAttr("tenant", rec.Tenant)
		sp.SetAttr("attempt", fmt.Sprint(rec.Attempts))
	}
	emit := func(name string, v any) {
		blob, err := json.Marshal(v)
		if err != nil {
			return
		}
		m.appendEvent(id, name, blob)
	}
	t0 := time.Now()
	out, err := exec(jobCtx, rec.Spec, emit)
	m.m.execWall.Observe(time.Since(t0).Microseconds())
	sp.End(err)
	m.finish(id, out, err)
}

// isCtxErr mirrors grid's definition: failures describing the caller (or
// the process lifecycle), not the computation.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finish records a completed execution's outcome. The terminal state, its
// journal line, and its terminal event land under one hold of m.mu, so a
// watcher that sees the job terminal also finds its last event.
func (m *Manager) finish(id string, out any, err error) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	st.cancel = nil
	now := time.Now()
	switch {
	case err == nil:
		blob, merr := json.Marshal(out)
		if merr != nil {
			st.rec.State = StateFailed
			st.rec.Error = "encode result: " + merr.Error()
			st.rec.Finished = now
		} else {
			st.rec.State = StateDone
			st.rec.Result = blob
			st.rec.Finished = now
		}
	case isCtxErr(err) && !st.canceled:
		// Shutdown, not cancellation: back to queued so the journal resumes
		// it on the next start. No terminal event — the job is not over.
		st.rec.State = StateQueued
		m.persistLocked(st.rec)
		m.mu.Unlock()
		m.m.requeued.Inc()
		m.gauges()
		return
	case isCtxErr(err):
		st.rec.State = StateCanceled
		st.rec.Error = "canceled"
		st.rec.Finished = now
	default:
		st.rec.State = StateFailed
		st.rec.Error = err.Error()
		st.rec.Finished = now
	}
	rec := st.rec
	m.persistLocked(rec)
	st.appendTerminal()
	m.mu.Unlock()
	switch rec.State {
	case StateDone:
		m.m.done.Inc()
	case StateCanceled:
		m.m.canceled.Inc()
	default:
		m.m.failed.Inc()
	}
	m.gauges()
}
