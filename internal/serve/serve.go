// Package serve exposes the Multiscalar pipeline as a long-lived HTTP/JSON
// service: POST /v1/partition (task selection + static verification),
// POST /v1/simulate (one grid job), POST /v1/generate (a property-based
// program from a seed and shape parameters, named for reuse by the other
// endpoints), GET /healthz, and GET /metrics (Prometheus text exposition).
// With a job manager it also mounts the async job API under /v1/jobs and
// POST /v1/experiment, which submits (or joins) a named figure/table/corpus
// sweep as a job and streams that job's event log over Server-Sent Events.
//
// Every request executes through one shared grid.Engine, so identical
// concurrent requests coalesce into a single simulation and warm-cache
// requests never touch a worker. Each request kind has one check, shared by
// its sync endpoint, job submission and the job executor. Robustness is
// structural rather than best-effort: requests are strictly decoded (unknown
// fields are errors) and validated before any work starts, a bounded
// admission gate sheds excess synchronous load with 429 + Retry-After,
// per-request deadlines propagate as a context.Context into the engine
// (queued jobs cancel cleanly), panics convert to 500s, and Shutdown drains
// gracefully — the listener closes, in-flight requests finish, then control
// returns to the caller.
package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/jobs"
	"multiscalar/internal/obs"
	"multiscalar/internal/obs/span"
)

// Config configures a Server. Engine is required; everything else defaults.
type Config struct {
	// Engine executes all partition/simulation work. Required. Its cache,
	// when it has one, also backs GET/PUT /v1/cache/{key} for peers (the
	// remote tier of another mssrv or of an msreport), and a cache with a
	// Health(context.Context) []grid.TierHealth method adds its tiers'
	// reachability to GET /healthz.
	Engine *grid.Engine
	// Metrics is the registry GET /metrics exposes; the server registers its
	// own serve_* metrics here. Pass the same registry to grid.New so the
	// scrape shows engine counters too. Nil creates a private registry.
	Metrics *obs.Registry
	// MaxInFlight bounds admitted /v1 requests; excess load is shed with
	// 429 + Retry-After (0 = 4× engine workers).
	MaxInFlight int
	// RequestTimeout is the per-request deadline propagated into the engine
	// (0 = 2 minutes).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// Logger receives structured access lines and internal errors (nil =
	// discard). Handing it a JSON handler makes every line machine-parseable;
	// traced requests carry a trace_id attribute either way.
	Logger *slog.Logger
	// Tracer, when non-nil, opens a serve.request span per /v1 request —
	// honoring an incoming X-Ms-Trace header and always echoing the span
	// context back on the response — and mounts GET /debug/traces,
	// /debug/traces/{id}, and /debug/requests.
	Tracer *span.Tracer
	// Jobs, when non-nil, mounts the async job API (POST/GET /v1/jobs,
	// GET /v1/jobs/{id}, GET /v1/jobs/{id}/events, DELETE /v1/jobs/{id}) and
	// POST /v1/experiment, and adds the jobs block to /healthz. The manager
	// must be built with this package's Executors over the same Engine, or
	// job results diverge from synchronous ones. Nil answers 404 on the job
	// routes and /v1/experiment.
	Jobs *jobs.Manager
	// JobLimiter rate-limits job submissions per tenant (X-Api-Key header).
	// Nil admits every submission.
	JobLimiter *jobs.Limiter
}

// serveMetrics holds the server's registry handles, resolved once at New.
type serveMetrics struct {
	requests, errors, shed *obs.Counter
	inflight               *obs.Gauge
	latency                *obs.Histogram
}

// Server is the HTTP simulation service. Create one with New.
type Server struct {
	cfg      Config
	eng      *grid.Engine
	reg      *obs.Registry
	log      *slog.Logger
	tracer   *span.Tracer
	admit    chan struct{}
	hs       *http.Server
	drained  chan struct{} // closed once Shutdown begins
	drainOne sync.Once
	m        serveMetrics
}

// New builds a server. It panics if cfg.Engine is nil (a wiring error, not a
// runtime condition).
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("serve: Config.Engine is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * cfg.Engine.Workers()
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		eng:     cfg.Engine,
		reg:     cfg.Metrics,
		log:     cfg.Logger,
		tracer:  cfg.Tracer,
		admit:   make(chan struct{}, cfg.MaxInFlight),
		drained: make(chan struct{}),
	}
	r := cfg.Metrics
	s.m = serveMetrics{
		requests: r.Counter("serve_requests_total", "requests", "HTTP requests received"),
		errors:   r.Counter("serve_errors_total", "requests", "requests answered with a 5xx status"),
		shed:     r.Counter("serve_shed_total", "requests", "requests shed with 429 at the admission gate"),
		inflight: r.Gauge("serve_inflight", "requests", "admitted /v1 requests executing right now"),
		latency: r.Histogram("serve_request_us", "us", "request wall time",
			obs.ExpBuckets(100, 4, 12)),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("POST /v1/partition", s.admitted(handleSync[PartitionRequest](s)))
	mux.Handle("POST /v1/simulate", s.admitted(handleSync[SimulateRequest](s)))
	mux.Handle("POST /v1/generate", s.admitted(handleSync[GenerateRequest](s)))
	// Cache endpoints skip the admission gate: they are cheap key-value
	// probes serving other machines' hot paths, and shedding them only
	// converts a remote hit into a redundant local simulation.
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	// Job endpoints also skip the gate and the request deadline: submission
	// is an enqueue (bounded by the per-tenant limiter, executed by the
	// manager's own runner pool), polls are table reads, and /v1/experiment
	// is a submission that streams its job. Holding an admission slot for a
	// job's lifetime would let slow sweeps starve the synchronous API.
	if cfg.Jobs != nil {
		mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
		mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	if s.tracer != nil {
		span.RegisterDebug(mux, s.tracer)
	}
	// Catch-all: structured 404s, and structured 405s for known routes hit
	// with the wrong method (a method mismatch falls through to this
	// handler because the "/" pattern still matches the path).
	methods := map[string]string{
		"/v1/partition": http.MethodPost,
		"/v1/simulate":  http.MethodPost,
		"/v1/generate":  http.MethodPost,
		"/healthz":      http.MethodGet,
		"/metrics":      http.MethodGet,
	}
	if cfg.Jobs != nil {
		methods["/v1/experiment"] = http.MethodPost
	}
	if s.tracer != nil {
		methods["/debug/traces"] = http.MethodGet
		methods["/debug/requests"] = http.MethodGet
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if want, ok := methods[r.URL.Path]; ok {
			w.Header().Set("Allow", want)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s %s not allowed (use %s)", r.Method, r.URL.Path, want))
			return
		}
		if strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			w.Header().Set("Allow", "GET, PUT")
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s %s not allowed (use GET or PUT)", r.Method, r.URL.Path))
			return
		}
		if cfg.Jobs != nil && (r.URL.Path == "/v1/jobs" || strings.HasPrefix(r.URL.Path, "/v1/jobs/")) {
			w.Header().Set("Allow", "GET, POST, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s %s not allowed (use GET, POST, or DELETE)", r.Method, r.URL.Path))
			return
		}
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
	})
	s.hs = &http.Server{
		Handler:           s.middleware(mux),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the fully wrapped handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.hs.Handler }

// Serve accepts connections on l until Shutdown; like http.Server.Serve it
// returns http.ErrServerClosed after a clean drain.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown drains gracefully: the listener stops accepting, /healthz flips
// to "draining", open event streams end (their jobs belong to the manager,
// which requeues them when it stops), other in-flight requests run to
// completion, and Shutdown returns when the last one finishes (or ctx
// expires, whichever is first).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOne.Do(func() { close(s.drained) })
	return s.hs.Shutdown(ctx)
}

// middleware wraps every request with panic recovery, request counting,
// latency observation, one structured access-log line, and — on /v1 routes
// of a traced server — the request's root span. An incoming X-Ms-Trace
// header links this process's span tree into the caller's trace; the span
// context always echoes back on the response header so the client can fetch
// the finished trace from /debug/traces/{id}.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rw := &responseWriter{ResponseWriter: w}
		s.m.requests.Inc()
		var sp *span.Span
		if s.tracer != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
			parent, _ := span.ParseHeader(r.Header.Get(span.Header))
			var ctx context.Context
			ctx, sp = s.tracer.StartLinked(r.Context(), parent, "serve.request")
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			rw.Header().Set(span.Header, span.FormatHeader(sp.Context()))
			r = r.WithContext(ctx)
		}
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic", "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !rw.wrote {
					writeError(rw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			dur := time.Since(t0)
			s.m.latency.Observe(dur.Microseconds())
			if rw.status() >= 500 {
				s.m.errors.Inc()
			}
			attrs := []any{
				"method", r.Method, "path", r.URL.Path, "status", rw.status(),
				"bytes", rw.bytes, "dur_ms", float64(dur.Microseconds()) / 1000,
				"remote", r.RemoteAddr,
			}
			if sp != nil {
				attrs = append(attrs, "trace_id", string(sp.TraceID()))
				sp.SetAttr("status", strconv.Itoa(rw.status()))
			}
			var spanErr error
			if st := rw.status(); st >= 500 {
				spanErr = fmt.Errorf("http %d", st)
			}
			sp.End(spanErr)
			s.log.Info("access", attrs...)
		}()
		next.ServeHTTP(rw, r)
	})
}

// admitted gates a /v1 handler behind the admission semaphore and arms the
// per-request deadline. A full gate sheds immediately — the request never
// queues, never allocates engine work, and tells the client when to retry.
func (s *Server) admitted(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.admit <- struct{}{}:
		default:
			s.m.shed.Inc()
			// Jittered, pressure-aware hint: a synchronized retry from every
			// shed client would just recreate the spike that shed them.
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(1, s.pressure())))
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("all %d request slots busy; retry later", cap(s.admit)))
			return
		}
		s.m.inflight.Set(int64(len(s.admit)))
		defer func() {
			<-s.admit
			s.m.inflight.Set(int64(len(s.admit)))
		}()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	})
}

// responseWriter records status and byte count for logging and metrics, and
// forwards Flush so SSE streaming works through the wrapper.
type responseWriter struct {
	http.ResponseWriter
	wrote      bool
	statusCode int
	bytes      int64
}

func (rw *responseWriter) WriteHeader(code int) {
	if !rw.wrote {
		rw.wrote = true
		rw.statusCode = code
	}
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *responseWriter) Write(p []byte) (int, error) {
	if !rw.wrote {
		rw.wrote = true
		rw.statusCode = http.StatusOK
	}
	n, err := rw.ResponseWriter.Write(p)
	rw.bytes += int64(n)
	return n, err
}

func (rw *responseWriter) status() int {
	if rw.statusCode == 0 {
		return http.StatusOK
	}
	return rw.statusCode
}

func (rw *responseWriter) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
