// Command mssrv serves the Multiscalar pipeline over HTTP: task selection
// (POST /v1/partition), simulation (POST /v1/simulate), property-based
// workload generation (POST /v1/generate), a shared result cache
// (GET/PUT /v1/cache/{key}, the one server of that protocol), plus /healthz
// and a Prometheus /metrics scrape. All requests share one grid engine, so
// identical concurrent requests coalesce into a single simulation and warm
// results are served from the cache tiers without touching a worker.
//
// The paper's experiment grids and the generated-corpus sweep run as jobs
// on the durable job surface (POST /v1/jobs, GET /v1/jobs/{id}, SSE at
// /v1/jobs/{id}/events): POST /v1/experiment submits (or joins) one and
// streams its events. Jobs are journaled under <cache-dir>/jobs and resume
// after a restart, and tenants (X-Api-Key) share runner time by weighted
// fair queueing under optional token-bucket submission limits.
// -jobs-runners 0 turns the job surface, /v1/experiment included, off.
//
// The cache is tiered: -cache-dir is the content-addressed disk store, and
// -remote-cache chains another mssrv -cache-dir behind it — remote hits are
// promoted to disk, local results are published back, and every remote
// failure fails open to local compute.
//
// With -worker the process joins a distributed run instead of serving: it
// registers with the msreport leader at -leader, pulls simulation jobs from
// the leader's queue, executes them on the local engine, and reports each
// result back to the leader.
//
// Usage:
//
//	mssrv -addr :8080 -j 8 -cache-dir ~/.cache/msgrid
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/simulate \
//	  -d '{"workload":"compress","select":{"heuristic":"cf"},"machine":{"pus":4}}'
//
//	# join a distributed msreport run as a worker
//	mssrv -worker -leader http://127.0.0.1:9090 -j 4
//
// On SIGINT/SIGTERM the server drains gracefully: the listener closes,
// in-flight requests finish (bounded by -drain-timeout), the final metrics
// snapshot is flushed, and the process exits 0. A worker exits 0 when the
// leader ends the run or on a clean signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multiscalar/internal/dist"
	"multiscalar/internal/grid"
	"multiscalar/internal/jobs"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
	_ "multiscalar/internal/policy" // register the policy zoo for select.policy
	"multiscalar/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		workers      = flag.Int("j", 0, "max concurrent partition/simulation jobs (default GOMAXPROCS)")
		cacheDir     = flag.String("cache-dir", "", "content-addressed result cache directory shared with msreport/mssim (default: no disk tier)")
		remoteCache  = flag.String("remote-cache", "", "base URL of a peer cache (another mssrv -cache-dir), probed after the disk tier")
		workerMode   = flag.Bool("worker", false, "run as a distributed worker instead of serving HTTP (requires -leader)")
		leaderURL    = flag.String("leader", "", "msreport leader base URL for -worker mode")
		maxInflight  = flag.Int("max-inflight", 0, "admitted /v1 requests before shedding with 429 (default 4x workers)")
		reqTimeout   = flag.Duration("request-timeout", 2*time.Minute, "per-request deadline propagated into the engine")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		metricsOut   = flag.String("metrics-out", "", "write the final metrics snapshot (Prometheus text format) to this file on exit (default: stderr)")
		logFormat    = flag.String("log-format", "text", "structured log encoding: text or json")
		traceRing    = flag.Int("trace-ring", 256, "flight-recorder capacity in completed traces; 0 disables tracing and the /debug surface")
		jobsRunners  = flag.Int("jobs-runners", 2, "concurrent async job executions (0 disables the /v1/jobs surface and /v1/experiment)")
		tenantRPS    = flag.Float64("tenant-rps", 0, "per-tenant job submissions per second (0 = unlimited)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant submission burst (default: -tenant-rps, min 1)")
		tenantWeight = flag.String("tenant-weights", "", "per-tenant fair-share weights as name=weight pairs, comma-separated (unlisted tenants weigh 1)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}
	logger := slog.New(handler)
	// dist takes the stdlib logger; the bridge keeps its lines on the same
	// handler (and therefore the same encoding) as everything else.
	bridge := slog.NewLogLogger(handler, slog.LevelInfo)
	reg := obs.NewRegistry()

	var tracer *span.Tracer
	if *traceRing > 0 {
		tracer = span.New(span.Options{Process: "mssrv", Ring: *traceRing, Metrics: reg})
	}

	if *workerMode && *leaderURL == "" {
		fatal(errors.New("-worker requires -leader"))
	}
	cache, remoteTier := dist.BuildCache(dist.CacheConfig{
		Dir:           *cacheDir,
		Remote:        *remoteCache,
		RemoteOptions: dist.RemoteOptions{Metrics: reg, Logger: bridge},
	})
	opts := grid.Options{Workers: *workers, Metrics: reg}
	if cache != nil {
		opts.Cache = cache
	}
	eng := grid.New(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		runWorker(ctx, eng, reg, remoteTier, *leaderURL, *metricsOut, logger, bridge, tracer)
		return
	}

	cfg := serve.Config{
		Engine:         eng,
		Metrics:        reg,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		Logger:         logger,
		Tracer:         tracer,
	}

	var mgr *jobs.Manager
	if *jobsRunners > 0 {
		weights, err := parseWeights(*tenantWeight)
		if err != nil {
			fatal(err)
		}
		jobsDir := ""
		if *cacheDir != "" {
			// The journal rides next to the result cache so one -cache-dir
			// carries both durability stories across a restart.
			jobsDir = filepath.Join(*cacheDir, "jobs")
		}
		mgr, err = jobs.NewManager(jobs.Options{
			Runners:   *jobsRunners,
			Dir:       jobsDir,
			Executors: serve.Executors(eng, time.Second),
			Cost:      serve.JobCost,
			Weights:   weights,
			Metrics:   reg,
			Tracer:    tracer,
		})
		if err != nil {
			fatal(err)
		}
		mgr.Start(ctx)
		cfg.Jobs = mgr
		if *tenantRPS > 0 {
			cfg.JobLimiter = jobs.NewLimiter(*tenantRPS, *tenantBurst)
		}
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "workers", eng.Workers(),
		"cache", *cacheDir, "remote", *remoteCache, "tracing", tracer != nil,
		"jobs", mgr != nil)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain

	logger.Info("draining", "timeout", drainTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain_incomplete", "err", err.Error())
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if mgr != nil {
		// After the HTTP drain: no new submissions can arrive, so Close only
		// waits for in-flight executions to unwind and journals the requeues.
		mgr.Close()
	}

	flushMetrics(reg, *metricsOut)
	s := eng.Stats()
	logger.Info("exit", "jobs", s.Done, "sims", s.Sims, "cache_hits", s.CacheHits, "deduped", s.Deduped)
}

// runWorker joins a distributed msreport run and blocks until the leader
// ends it, a signal arrives, or the leader stays unreachable.
func runWorker(ctx context.Context, eng *grid.Engine, reg *obs.Registry, remoteTier *dist.RemoteCache,
	leader, metricsOut string, logger *slog.Logger, bridge *log.Logger, tracer *span.Tracer) {
	w, err := dist.NewWorker(dist.WorkerOptions{
		Leader:  leader,
		Engine:  eng,
		Metrics: reg,
		Logger:  bridge,
		Tracer:  tracer,
	})
	if err != nil {
		fatal(err)
	}
	runErr := w.Run(ctx)
	flushMetrics(reg, metricsOut)
	st := w.Stats()
	attrs := []any{"worker", w.Name(), "jobs", st.Jobs, "failures", st.Failures}
	if remoteTier != nil {
		rs := remoteTier.Stats()
		attrs = append(attrs, "remote_hits", rs.Hits, "remote_misses", rs.Misses,
			"remote_puts", rs.Puts, "remote_errors", rs.Errors)
	}
	logger.Info("worker_exit", attrs...)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fatal(runErr)
	}
}

// flushMetrics writes the final snapshot so a scrape-less deployment still
// keeps the run's counters.
func flushMetrics(reg *obs.Registry, path string) {
	out := os.Stderr
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := reg.WritePrometheus(out); err != nil {
		fatal(err)
	}
}

// parseWeights decodes "-tenant-weights alice=4,bob=2" into the fair-queue
// weight map. Weights must be positive; zero would silently starve a tenant.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-weights: %q is not name=weight", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights: %q needs a positive weight", pair)
		}
		out[name] = w
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssrv:", err)
	os.Exit(1)
}
