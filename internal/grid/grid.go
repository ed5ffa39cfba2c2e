// Package grid executes the experiment grid: every (workload, selection
// options, machine point) triple is an independent job with an explicit
// prepared program→partition→simulation dependency. Jobs are scheduled
// across a bounded worker pool, concurrent requests for the same key
// coalesce into a single computation (single-flight), completed computations
// are memoized in memory for the life of the engine, and simulation results
// may additionally be backed by a content-addressed on-disk cache so warm
// reruns skip simulation entirely.
//
// The engine is safe for concurrent use: callers fan out one goroutine per
// job and block in Run; only actual core.Prepare / selection / sim.Run work
// occupies a worker slot, so an arbitrary number of pending jobs costs no
// parallelism.
package grid

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
	"multiscalar/internal/workloads"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent core.Prepare, selection and sim.Run
	// computations (0 = GOMAXPROCS).
	Workers int
	// CacheDir enables the content-addressed on-disk result cache
	// ("" = disabled). The directory is created on first store.
	CacheDir string
	// Cache overrides CacheDir with an explicit result store — typically a
	// tiered cache (internal/dist: disk → remote HTTP) that shares results
	// with an mssrv peer.
	Cache Cache
	// Dispatcher, when non-nil, is offered every cache-missing simulation
	// job before local execution — the hook the distributed job queue
	// (internal/dist) plugs into. A dispatcher that answers with an error
	// wrapping ErrDispatch sends the job back to in-process compute, so a
	// drained or unreachable fleet degrades to single-process execution
	// rather than failing the sweep.
	Dispatcher Dispatcher
	// Metrics is the registry the engine counts into: job and simulation
	// counters, cache hit/miss counters, queue-wait and execution wall-time
	// histograms, and worker occupancy over time (see newEngMetrics for the
	// catalog). Stats reads the same counters, so engines that share a
	// registry share their counts. Nil gives the engine a private registry.
	Metrics *obs.Registry
}

// Job names one simulation: a workload partitioned under Select and timed
// on the machine Config. Config must be fully resolved (what sim.Run will
// actually see) — it is hashed verbatim into the cache key.
type Job struct {
	Workload string
	Select   core.Options
	Config   sim.Config
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Jobs and Done count unique simulation jobs entered and finished
	// (cache hits included); Jobs-Done is the in-flight backlog.
	Jobs, Done int64
	// Prepares counts actual core.Prepare executions: one per program and
	// prepare-option set (core.PrepareOptions), shared by every selection
	// arm on it.
	Prepares int64
	// Partitions and Sims count actual task selections and sim.Run
	// executions.
	Partitions, Sims int64
	// CacheHits and CacheMisses count disk-cache probes.
	CacheHits, CacheMisses int64
	// Deduped counts calls that coalesced into an already-running
	// computation instead of starting their own.
	Deduped int64
}

// Delta returns the counter-wise difference s - base: the engine activity
// that happened between two snapshots. On a shared engine this is how a
// caller attributes work to its own window — absolute counters mix every
// client's jobs together.
func (s Stats) Delta(base Stats) Stats {
	return Stats{
		Jobs:        s.Jobs - base.Jobs,
		Done:        s.Done - base.Done,
		Prepares:    s.Prepares - base.Prepares,
		Partitions:  s.Partitions - base.Partitions,
		Sims:        s.Sims - base.Sims,
		CacheHits:   s.CacheHits - base.CacheHits,
		CacheMisses: s.CacheMisses - base.CacheMisses,
		Deduped:     s.Deduped - base.Deduped,
	}
}

// Dispatcher is an alternative executor for simulation jobs: the engine
// hands over (key, job) and blocks until a result arrives from wherever the
// dispatcher ran it. Returning an error that wraps ErrDispatch instructs
// the engine to execute the job in-process instead; a context error
// propagates to the caller un-memoized like any other.
type Dispatcher interface {
	Dispatch(ctx context.Context, key string, job Job) (*sim.Result, error)
}

// ErrDispatch marks a dispatcher failure that describes the dispatcher, not
// the job — scheduler closed, fleet drained. The engine reacts by running
// the job locally (fail-open), so distributed infrastructure can never make
// a computable job uncomputable.
var ErrDispatch = errors.New("grid: dispatcher unavailable")

// Engine schedules grid jobs. Create one with New; the zero value is not
// usable.
type Engine struct {
	sem      chan struct{}
	cache    Cache      // nil = no result cache
	dispatch Dispatcher // nil = always compute in-process
	m        engMetrics

	mu    sync.Mutex
	preps map[string]*call[*core.Prepared]
	parts map[string]*call[*core.Partition]
	sims  map[string]*call[*sim.Result]

	done atomic.Int64 // finished jobs; the one count with no metric
}

// engMetrics holds the engine's registry handles, resolved once at New so
// job execution never touches the registry map. The catalog is documented in
// DESIGN.md §9.
type engMetrics struct {
	jobs, preps, parts, sims *obs.Counter
	cacheHits, cacheMiss     *obs.Counter
	dedups                   *obs.Counter
	queueWait, execWall      *obs.Histogram
	busy                     *obs.Gauge
	occupancy                *obs.Histogram
}

func newEngMetrics(r *obs.Registry) engMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return engMetrics{
		jobs:      r.Counter("grid_jobs_total", "jobs", "unique simulation jobs entered"),
		preps:     r.Counter("grid_prepares_total", "prepares", "core.Prepare executions"),
		parts:     r.Counter("grid_partitions_total", "partitions", "core.Select executions"),
		sims:      r.Counter("grid_sims_total", "sims", "sim.Run executions"),
		cacheHits: r.Counter("grid_cache_hits_total", "probes", "disk-cache probes that hit"),
		cacheMiss: r.Counter("grid_cache_misses_total", "probes", "disk-cache probes that missed"),
		dedups:    r.Counter("grid_dedup_total", "calls", "calls coalesced into a running computation"),
		queueWait: r.Histogram("grid_queue_wait_us", "us",
			"time a ready job waited for a worker slot", obs.ExpBuckets(1, 4, 14)),
		execWall: r.Histogram("grid_exec_wall_us", "us",
			"wall time of one core.Prepare, core.Select or sim.Run execution", obs.ExpBuckets(1, 4, 14)),
		busy: r.Gauge("grid_workers_busy", "workers",
			"worker slots in use right now"),
		occupancy: r.Histogram("grid_worker_occupancy", "workers",
			"busy workers sampled at each slot acquisition", obs.LinearBuckets(1, 1, 64)),
	}
}

// runSim indirects sim.Run so tests can observe scheduling.
var runSim = sim.Run

// SetSimForTesting replaces the function every engine runs for a simulation
// and returns a restore func. It exists so tests outside this package
// (notably internal/serve) can gate and count simulations; never call it
// from non-test code, and never concurrently with live engines.
func SetSimForTesting(fn func(*core.Partition, sim.Config) (*sim.Result, error)) (restore func()) {
	old := runSim
	if fn == nil {
		fn = sim.Run
	}
	runSim = fn
	return func() { runSim = old }
}

// New returns an engine with the given worker bound and cache directory.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		sem:      make(chan struct{}, workers),
		dispatch: opts.Dispatcher,
		m:        newEngMetrics(opts.Metrics),
		preps:    make(map[string]*call[*core.Prepared]),
		parts:    make(map[string]*call[*core.Partition]),
		sims:     make(map[string]*call[*sim.Result]),
	}
	switch {
	case opts.Cache != nil:
		e.cache = opts.Cache
	case opts.CacheDir != "":
		e.cache = NewDiskCache(opts.CacheDir)
	}
	return e
}

// Workers reports the worker-pool bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// Cache returns the result cache the engine reads and writes (nil = none).
func (e *Engine) Cache() Cache { return e.cache }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Jobs: e.m.jobs.Value(), Done: e.done.Load(),
		Prepares:   e.m.preps.Value(),
		Partitions: e.m.parts.Value(), Sims: e.m.sims.Value(),
		CacheHits: e.m.cacheHits.Value(), CacheMisses: e.m.cacheMiss.Value(),
		Deduped: e.m.dedups.Value(),
	}
}

// call is one single-flight computation. Completed calls stay in the
// engine's maps as the in-memory memo.
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error — the class of failures that describe the caller rather
// than the computation, and therefore must never be memoized.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// flight returns the memoized or in-flight result for key, or makes the
// caller the leader that computes it via fn. Waiters hold no worker slot and
// abandon the wait (leaving the leader running) when their ctx ends. A
// leader that fails with its own context error is evicted from the memo
// before waiters wake, so one canceled client never poisons the key: the
// first waiter whose context is still live retries as the new leader.
func flight[T any](ctx context.Context, e *Engine, m map[string]*call[T], key string, fn func() (T, error)) (T, error) {
	var zero T
	for {
		e.mu.Lock()
		if c, ok := m[key]; ok {
			e.mu.Unlock()
			select {
			case <-c.done:
			default:
				e.m.dedups.Inc()
				if err := waitFlight(ctx, c.done); err != nil {
					return zero, err
				}
			}
			if isCtxErr(c.err) {
				if err := ctx.Err(); err != nil {
					return zero, err
				}
				continue
			}
			return c.val, c.err
		}
		c := &call[T]{done: make(chan struct{})}
		m[key] = c
		e.mu.Unlock()
		c.val, c.err = fn()
		if isCtxErr(c.err) {
			e.mu.Lock()
			if cur, ok := m[key]; ok && cur == c {
				delete(m, key)
			}
			e.mu.Unlock()
		}
		close(c.done)
		return c.val, c.err
	}
}

// waitFlight blocks until the in-flight leader for a key finishes or ctx
// ends. The wait is recorded as a grid.singleflight-wait span when the
// caller is traced — coalescing is invisible in logs, and exactly the kind
// of "where did my latency go" answer a trace exists to give.
func waitFlight(ctx context.Context, done <-chan struct{}) (err error) {
	_, sp := span.Start(ctx, "grid.singleflight-wait")
	defer func() { sp.End(err) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire takes a worker slot, or gives up when ctx ends first — this is
// what lets a queued job cancel cleanly without ever running. It records
// the queue wait and the occupancy it leaves; a traced caller additionally
// gets a grid.queue-wait span covering the wait.
func (e *Engine) acquire(ctx context.Context) (err error) {
	_, sp := span.Start(ctx, "grid.queue-wait")
	defer func() { sp.End(err) }()
	t0 := time.Now()
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	e.m.queueWait.Observe(time.Since(t0).Microseconds())
	busy := int64(len(e.sem))
	e.m.busy.Set(busy)
	e.m.occupancy.Observe(busy)
	return nil
}

func (e *Engine) release() {
	<-e.sem
	e.m.busy.Set(int64(len(e.sem)))
}

// timed runs fn inside a worker slot as a span named name, recording its
// exec wall time. Cancellation is only honored while waiting for the slot:
// once fn starts it runs to completion (sim.Run is not preemptible).
func timed[T any](ctx context.Context, e *Engine, name string, fn func() (T, error)) (v T, err error) {
	if err = e.acquire(ctx); err != nil {
		return v, err
	}
	defer e.release()
	_, sp := span.Start(ctx, name)
	defer func() { sp.End(err) }()
	t0 := time.Now()
	v, err = fn()
	e.m.execWall.Observe(time.Since(t0).Microseconds())
	return v, err
}

// Partition returns the task selection for one workload under opts,
// computing it at most once per engine.
func (e *Engine) Partition(workload string, opts core.Options) (*core.Partition, error) {
	//msvet:allow ctxflow (compat wrapper: uncancellable by design; callers with deadlines use PartitionCtx)
	return e.PartitionCtx(context.Background(), workload, opts)
}

// PartitionCtx is Partition with a caller deadline: a job still queued for a
// worker slot when ctx ends returns ctx.Err() without ever partitioning, and
// a canceled computation is not memoized. The prepared program resolves
// first, shared with every other selection on the same program and prepare
// options, and only then does the selection take a worker slot of its own.
func (e *Engine) PartitionCtx(ctx context.Context, workload string, opts core.Options) (*core.Partition, error) {
	if workload == "" {
		return nil, errors.New("grid: empty workload name")
	}
	return flight(ctx, e, e.parts, PartitionKey(workload, opts), func() (*core.Partition, error) {
		prep, err := e.prepare(ctx, workload, opts)
		if err != nil {
			return nil, err
		}
		p, err := timed(ctx, e, "grid.partition", func() (*core.Partition, error) {
			e.m.parts.Inc()
			return prep.Select(opts)
		})
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			return nil, fmt.Errorf("grid: partition %s: %w", workload, err)
		}
		return p, nil
	})
}

// prepare returns the workload's program prepared under opts's prepare
// options, building and preparing it at most once per engine. Prepared
// programs live in memory only.
func (e *Engine) prepare(ctx context.Context, workload string, opts core.Options) (*core.Prepared, error) {
	return flight(ctx, e, e.preps, prepareKey(workload, opts), func() (*core.Prepared, error) {
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		p, err := timed(ctx, e, "grid.prepare", func() (*core.Prepared, error) {
			e.m.preps.Inc()
			return core.Prepare(w.Build(), opts)
		})
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			return nil, fmt.Errorf("grid: partition %s: %w", workload, err)
		}
		return p, nil
	})
}

// Run executes one job: a warm disk cache satisfies it without touching the
// partition; otherwise the partition dependency resolves first (shared with
// every other job on the same selection) and the simulation runs in a
// worker slot. Safe for concurrent use; identical concurrent jobs run once.
func (e *Engine) Run(job Job) (*sim.Result, error) {
	//msvet:allow ctxflow (compat wrapper: uncancellable by design; callers with deadlines use RunCtx)
	return e.RunCtx(context.Background(), job)
}

// RunCtx is Run with a caller deadline. Cancellation is honored at the two
// wait points — the single-flight wait and the worker-slot queue — so a
// canceled job that never reached a worker costs nothing; a simulation
// already executing runs to completion (its result is still memoized for the
// next caller). Context errors are never memoized: the next request for the
// same key simply recomputes.
func (e *Engine) RunCtx(ctx context.Context, job Job) (*sim.Result, error) {
	return e.RunKeyed(ctx, Key(job), job)
}

// RunKeyed is RunCtx for a caller that already holds Key(job), which it
// passes as key, so a memo hit derives no key at all. A key that is not the
// job's own addresses another job's memo and cache entries.
func (e *Engine) RunKeyed(ctx context.Context, key string, job Job) (res *sim.Result, err error) {
	if job.Workload == "" {
		return nil, errors.New("grid: empty workload name")
	}
	ctx, sp := span.Start(ctx, "grid.run")
	if sp != nil {
		sp.SetAttr("workload", job.Workload)
		sp.SetAttr("pus", strconv.Itoa(job.Config.NumPUs))
		sp.SetAttr("key", key)
	}
	defer func() { sp.End(err) }()
	return flight(ctx, e, e.sims, key, func() (*sim.Result, error) {
		e.m.jobs.Inc()
		defer e.done.Add(1)
		if e.cache != nil {
			if res, ok := cacheProbe(ctx, e.cache, key, job); ok {
				e.m.cacheHits.Inc()
				return res, nil
			}
			e.m.cacheMiss.Inc()
		}
		if e.dispatch != nil {
			res, err := e.dispatch.Dispatch(ctx, key, job)
			switch {
			case err == nil:
				if e.cache != nil {
					e.cache.Store(ctx, key, job, res)
				}
				return res, nil
			case isCtxErr(err):
				return nil, err
			case errors.Is(err, ErrDispatch):
				// Fail open: the fleet can't take the job; run it here.
			default:
				return nil, fmt.Errorf("grid: dispatch %s/%dPU: %w", job.Workload, job.Config.NumPUs, err)
			}
		}
		res, err := e.ComputeCtx(ctx, job)
		if err != nil {
			return nil, err
		}
		if e.cache != nil {
			e.cache.Store(ctx, key, job, res)
		}
		return res, nil
	})
}

// cacheProbe is Cache.Load under a grid.cache-lookup span carrying the
// outcome; tiered caches (internal/dist) add one child probe span per tier,
// so a trace shows exactly which tier answered.
func cacheProbe(ctx context.Context, cache Cache, key string, job Job) (res *sim.Result, ok bool) {
	ctx, sp := span.Start(ctx, "grid.cache-lookup")
	defer func() {
		if sp != nil {
			sp.SetAttr("hit", strconv.FormatBool(ok))
		}
		sp.End(nil)
	}()
	return cache.Load(ctx, key, job)
}

// ComputeCtx executes one job in this process unconditionally: the
// partition dependency resolves through the shared single-flight (so jobs
// on the same selection still select once, and selections on the same
// program prepare it once), then the simulation runs in a worker slot. It bypasses the sim-level memo, the cache, and the
// dispatcher — which is exactly what a distribution layer's local worker
// loop needs: it already holds the job's single-flight leadership via
// RunCtx, so re-entering RunCtx from the loop would self-deadlock.
func (e *Engine) ComputeCtx(ctx context.Context, job Job) (*sim.Result, error) {
	if job.Workload == "" {
		return nil, errors.New("grid: empty workload name")
	}
	part, err := e.PartitionCtx(ctx, job.Workload, job.Select)
	if err != nil {
		return nil, err
	}
	res, err := timed(ctx, e, "grid.sim-exec", func() (*sim.Result, error) {
		e.m.sims.Inc()
		return runSim(part, job.Config)
	})
	if err != nil {
		if isCtxErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("grid: sim %s/%dPU: %w", job.Workload, job.Config.NumPUs, err)
	}
	return res, nil
}

// RunAll executes fn(i) for every i in [0, n) concurrently and returns the
// errors.Join of every failure in index order (nil when all succeed), so no
// concurrent experiment error is masked by another. It is the fan-out helper
// the experiment layer uses: results land in caller-indexed slots, so
// collection order — and any output derived from it — is deterministic
// regardless of completion order.
//
// Cancellation gates launches, not running work: once ctx ends, remaining
// indices are not started and report ctx.Err() in their slots, while
// already-launched fns run to completion (they receive the same ctx through
// their closure if they want to stop sooner).
func RunAll(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
