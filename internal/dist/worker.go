package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Leader is the leader's base URL (scheme://host:port). Required.
	Leader string
	// Engine executes pulled jobs. Required. It needs no cache tier: the
	// leader dispatches only jobs its own cache missed, and each result
	// goes back to the leader in the job's report.
	Engine *grid.Engine
	// Client issues protocol requests (nil = private client; pulls and
	// reports carry their own deadlines).
	Client *http.Client
	// Concurrency is how many pull-execute loops run at once (0 = the
	// engine's worker count), so one worker process keeps all its cores
	// busy. The engine's own semaphore still bounds simulations.
	Concurrency int
	// PollInterval is the pause after an empty pull (0 = 50ms; the leader
	// long-polls on top of this).
	PollInterval time.Duration
	// Timeout bounds each protocol request (0 = 10s).
	Timeout time.Duration
	// Metrics is the registry the worker counts into: dist_pull_rtt_us and
	// the worker-side job counters, which Stats reads. Nil gives the worker
	// a private registry.
	Metrics *obs.Registry
	// Logger receives lifecycle lines (nil = discard).
	Logger *log.Logger
	// Tracer, when non-nil, records worker.pull and worker.exec spans under
	// the trace context each pulled job carries and ships them back to the
	// leader on the job's report, stitching one cross-process trace.
	Tracer *span.Tracer
}

// WorkerStats snapshots a worker's counters.
type WorkerStats struct {
	// Jobs counts pulled jobs executed to completion (success or sim
	// error); Failures counts jobs whose execution returned an error.
	Jobs, Failures int64
}

// Worker is one fleet member: it registers with a leader, pulls jobs from
// the leader's queue, executes them through its own engine — the
// partition→simulate dependency resolves locally — and reports each
// result back. Run returns when the
// leader declares the run over, the context ends, or the leader stays
// unreachable past the retry budget.
type Worker struct {
	leader  string
	eng     *grid.Engine
	hc      *http.Client
	conc    int
	poll    time.Duration
	timeout time.Duration
	log     *log.Logger
	tracer  *span.Tracer
	name    string

	rtt          *obs.Histogram
	jobs, failed *obs.Counter
}

// NewWorker validates opts and returns an unstarted worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Leader == "" {
		return nil, fmt.Errorf("dist: WorkerOptions.Leader is required")
	}
	if opts.Engine == nil {
		return nil, fmt.Errorf("dist: WorkerOptions.Engine is required")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 50 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = opts.Engine.Workers()
	}
	r := opts.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	return &Worker{
		leader:  trimSlash(opts.Leader),
		eng:     opts.Engine,
		hc:      opts.Client,
		conc:    opts.Concurrency,
		poll:    opts.PollInterval,
		timeout: opts.Timeout,
		log:     opts.Logger,
		tracer:  opts.Tracer,
		rtt: r.Histogram("dist_pull_rtt_us", "us",
			"round-trip time of one pull against the leader", obs.ExpBuckets(10, 4, 12)),
		jobs:   r.Counter("dist_jobs_executed_total", "jobs", "jobs this worker executed"),
		failed: r.Counter("dist_job_errors_total", "jobs", "executed jobs that returned an error"),
	}, nil
}

// Name reports the leader-assigned worker name ("" before registration).
func (w *Worker) Name() string { return w.name }

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{Jobs: w.jobs.Value(), Failures: w.failed.Value()}
}

// maxConsecutiveFailures bounds how many protocol round trips may fail in a
// row (with backoff between them) before the worker gives up on the leader.
const maxConsecutiveFailures = 8

// Run registers once and drives Concurrency pull-execute loops until the
// leader closes the run (nil), ctx ends (ctx.Err()), or the leader stays
// unreachable past the retry budget (a protocol error). The first loop
// failure cancels its siblings.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.log.Printf("level=info msg=worker_registered worker=%s leader=%s conc=%d", w.name, w.leader, w.conc)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, w.conc)
	for i := 0; i < w.conc; i++ {
		go func() { errs <- w.loop(ctx) }()
	}
	var first error
	for i := 0; i < w.conc; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	if first == nil {
		w.log.Printf("level=info msg=worker_done worker=%s jobs=%d", w.name, w.jobs.Value())
	}
	return first
}

// loop is one pull-execute loop.
func (w *Worker) loop(ctx context.Context) error {
	failures := 0
	backoff := w.poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		pull, rtt, err := w.pull(ctx)
		if err != nil {
			failures++
			if failures >= maxConsecutiveFailures {
				return fmt.Errorf("dist: leader unreachable after %d attempts: %w", failures, err)
			}
			if err := sleepCtx(ctx, backoff); err != nil {
				return err
			}
			backoff *= 2
			continue
		}
		failures, backoff = 0, w.poll
		switch {
		case pull.Closed:
			return nil
		case pull.None || pull.Job == nil:
			if err := sleepCtx(ctx, w.poll); err != nil {
				return err
			}
			continue
		}
		var sc span.SpanContext
		if pull.Trace != nil {
			sc = *pull.Trace
		}
		// Backdate the pull span by the measured round trip so the trace
		// shows the hand-off latency between leader and worker.
		w.tracer.Record(sc, "worker.pull", time.Now().Add(-rtt), rtt, nil)
		res, runErr := w.exec(ctx, sc, *pull.Job)
		if runErr != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		w.jobs.Inc()
		errMsg := ""
		if runErr != nil {
			errMsg = runErr.Error()
			w.failed.Inc()
		}
		if err := w.report(ctx, pull.Key, res, errMsg, w.tracer.Collect(sc.TraceID)); err != nil {
			// The lease expires and the leader hands the job to the next
			// puller. This worker's engine memo answers it at once if it
			// comes back here; any other worker simulates it again.
			w.log.Printf("level=warn msg=report_failed worker=%s key=%s err=%v", w.name, pull.Key, err)
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var resp RegisterResponse
		err := w.post(ctx, "/v1/dist/register", RegisterRequest{Hint: "mssrv-worker"}, &resp)
		if err == nil {
			if resp.Worker == "" {
				return fmt.Errorf("dist: leader assigned empty worker name")
			}
			w.name = resp.Worker
			// Spans this worker records should carry its fleet identity,
			// not whatever placeholder the tracer was built with.
			w.tracer.SetProcess(w.name)
			return nil
		}
		if attempt+1 >= maxConsecutiveFailures {
			return fmt.Errorf("dist: register with %s: %w", w.leader, err)
		}
		if err := sleepCtx(ctx, backoff); err != nil {
			return err
		}
		backoff *= 2
	}
}

// exec runs one pulled job under a worker.exec span parented to the
// leader-supplied trace context (a no-op when the pull carried none).
func (w *Worker) exec(ctx context.Context, sc span.SpanContext, job grid.Job) (res *sim.Result, err error) {
	ctx, sp := w.tracer.StartRemote(ctx, sc, "worker.exec")
	if sp != nil {
		sp.SetAttr("worker", w.name)
	}
	defer func() { sp.End(err) }()
	return w.eng.RunCtx(ctx, job)
}

func (w *Worker) pull(ctx context.Context) (PullResponse, time.Duration, error) {
	var resp PullResponse
	t0 := time.Now()
	err := w.post(ctx, "/v1/dist/pull", PullRequest{Worker: w.name}, &resp)
	rtt := time.Since(t0)
	w.rtt.Observe(rtt.Microseconds())
	return resp, rtt, err
}

func (w *Worker) report(ctx context.Context, key string, res *sim.Result, errMsg string, spans []span.SpanData) error {
	// Detach from cancellation (but keep the deadline): a finished result
	// should reach the leader even if this worker is shutting down.
	return w.post(context.WithoutCancel(ctx), "/v1/dist/report", ReportRequest{
		Worker: w.name, Key: key, Result: res, Error: errMsg, Spans: spans,
	}, nil)
}

func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, w.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.leader+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("dist: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx pauses for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
