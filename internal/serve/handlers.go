package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"multiscalar/internal/experiment"
	"multiscalar/internal/gen"
	"multiscalar/internal/grid"
	"multiscalar/internal/ir"
	"multiscalar/internal/jobs"
	"multiscalar/internal/verify"
)

// writeJSON renders v with a status; encode failures on plain data structs
// are programming errors and surface via the panic-recovery middleware.
func writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: encode response: %v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(blob, '\n'))
}

// writeError renders the structured error shape.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg}})
}

// strictDecode is the one JSON decoder for request bodies and job payloads:
// unknown fields and trailing data are errors, so a job payload passes
// exactly the same gate as the synchronous endpoint's body.
func strictDecode[T any](r io.Reader) (*T, error) {
	v := new(T)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return v, err
	}
	if dec.More() {
		return v, errors.New("trailing data after JSON body")
	}
	return v, nil
}

// decode strictly parses a JSON request body: unknown fields, trailing data,
// and oversized bodies are all rejected before any engine work starts. It
// writes the error response itself and reports ok=false.
func decode[T any](w http.ResponseWriter, r *http.Request, maxBytes int64) (*T, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	v, err := strictDecode[T](r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return v, false
		}
		writeError(w, http.StatusBadRequest, "invalid_request", "decode request: "+err.Error())
		return v, false
	}
	return v, true
}

// writeCheckError answers a body its kind's check refused: 400 with the
// check's error code, invalid_request unless the check names another.
func writeCheckError(w http.ResponseWriter, err error) {
	code := "invalid_request"
	var re *requestError
	if errors.As(err, &re) {
		code = re.code
	}
	writeError(w, http.StatusBadRequest, code, err.Error())
}

// writeEngineError maps an engine failure onto the wire: a blown request
// deadline is 504, a client that went away gets nothing (the connection is
// gone), everything else is a 500 with the engine's message.
func (s *Server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
			fmt.Sprintf("request deadline (%s) exceeded before the job finished", s.cfg.RequestTimeout))
	case errors.Is(err, context.Canceled):
		// The client disconnected; log only.
		s.log.Info("client_gone", "method", r.Method, "path", r.URL.Path)
	default:
		s.log.Error("engine_error", "path", r.URL.Path, "err", err.Error())
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// tieredCache is an engine cache that reports per-tier reachability
// (dist.Tiered). Health must be cheap: it runs on every health probe.
type tieredCache interface {
	Health(ctx context.Context) []grid.TierHealth
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	select {
	case <-s.drained:
		status, code = "draining", http.StatusServiceUnavailable
	default:
	}
	resp := HealthResponse{
		Status:   status,
		Inflight: len(s.admit),
		Workers:  s.eng.Workers(),
	}
	if s.cfg.Jobs != nil {
		js := s.cfg.Jobs.Stats()
		resp.Jobs = &JobsStatus{
			Queued:         js.Queued,
			Running:        js.Running,
			Done:           js.Done,
			Failed:         js.Failed,
			Canceled:       js.Canceled,
			OldestQueuedMS: js.OldestQueued.Milliseconds(),
		}
	}
	if c, ok := s.eng.Cache().(tieredCache); ok {
		b := BackendStatus{CacheTiers: c.Health(r.Context())}
		resp.Backend = &b
		// An unreachable cache tier degrades the report (the server still
		// works — every tier is fail-open) but keeps the 200: load balancers
		// should not pull a node that merely lost its remote cache.
		if status == "ok" {
			for _, t := range b.CacheTiers {
				if !t.OK {
					resp.Status = "degraded"
					break
				}
			}
		}
	}
	writeJSON(w, code, resp)
}

// handleCacheGet serves one artifact by content address — the read side of
// the remote cache tier. A miss is a plain 404: the caller computes locally.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := grid.ValidateKey(key); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_key", err.Error())
		return
	}
	cache := s.eng.Cache()
	if cache == nil {
		writeError(w, http.StatusNotFound, "no_cache", "this server has no cache configured")
		return
	}
	res, ok := cache.Load(r.Context(), key, grid.Job{})
	if !ok {
		writeError(w, http.StatusNotFound, "not_cached", "no artifact for key "+key)
		return
	}
	writeJSON(w, http.StatusOK, grid.Artifact{Schema: grid.SchemaVersion, Result: res})
}

// handleCachePut accepts one published artifact — the write side of the
// remote cache tier. The schema must match exactly; correctness rests on
// the key, so the body's job metadata is stored as-is for inspection.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if err := grid.ValidateKey(key); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_key", err.Error())
		return
	}
	cache := s.eng.Cache()
	if cache == nil {
		writeError(w, http.StatusNotFound, "no_cache", "this server has no cache configured")
		return
	}
	a, ok := decode[grid.Artifact](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if a.Schema != grid.SchemaVersion || a.Result == nil {
		writeError(w, http.StatusBadRequest, "stale_schema",
			fmt.Sprintf("artifact schema %d (want %d) or missing result", a.Schema, grid.SchemaVersion))
		return
	}
	job := grid.Job{Workload: a.Workload, Select: a.Select, Config: a.Config}
	cache.Store(r.Context(), key, job, a.Result)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics_write", "err", err.Error())
	}
}

// request is one request kind's body. check validates it and resolves it in
// place, into unexported fields the wire never sees: it is the kind's only
// check, called by the sync endpoint, job submission and the job executor
// alike, so every path accepts and refuses the same bodies with the same
// error codes.
type request interface {
	check() error
}

// syncRequest is a checked kind with a synchronous endpoint. run is its
// transport-free core, so a job and a direct request produce identical
// bodies through the same engine (and therefore the same single-flight and
// cache).
type syncRequest interface {
	request
	run(ctx context.Context, eng *grid.Engine) (any, error)
}

// handleSync serves one synchronous request kind: strict decode, the kind's
// check, then its work under the request's deadline.
func handleSync[T any, PT interface {
	*T
	syncRequest
}](s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode[T](w, r, s.cfg.MaxBodyBytes)
		if !ok {
			return
		}
		if err := PT(req).check(); err != nil {
			writeCheckError(w, err)
			return
		}
		resp, err := PT(req).run(r.Context(), s.eng)
		if err != nil {
			s.writeEngineError(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (req *PartitionRequest) check() error {
	opts, err := req.Select.core()
	if err != nil {
		return err
	}
	name, err := resolveWorkload(req.Workload, req.Generator)
	if err != nil {
		return err
	}
	req.name, req.opts = name, opts
	return nil
}

func (req *PartitionRequest) run(ctx context.Context, eng *grid.Engine) (any, error) {
	part, err := eng.PartitionCtx(ctx, req.name, req.opts)
	if err != nil {
		return nil, err
	}
	findings := verify.Partition(part)
	findings.Sort()
	resp := PartitionResponse{
		Workload:  req.name,
		Heuristic: part.Heuristic.String(),
		Policy:    part.Opts.Policy,
		Tasks:     len(part.Tasks),
		Errors:    findings.Errors(),
		Warnings:  findings.Warnings(),
		Findings:  findingBodies(findings),
	}
	targets := 0
	for _, t := range part.Tasks {
		resp.Blocks += len(t.Blocks)
		targets += len(t.Targets)
	}
	if n := len(part.Tasks); n > 0 {
		resp.AvgBlocks = float64(resp.Blocks) / float64(n)
		resp.AvgTargets = float64(targets) / float64(n)
	}
	return resp, nil
}

func (req *SimulateRequest) check() error {
	opts, err := req.Select.core()
	if err != nil {
		return err
	}
	cfg, err := req.Machine.config()
	if err != nil {
		return err
	}
	name, err := resolveWorkload(req.Workload, req.Generator)
	if err != nil {
		return err
	}
	req.job = grid.Job{Workload: name, Select: opts, Config: cfg}
	req.key = grid.Key(req.job)
	return nil
}

func (req *SimulateRequest) run(ctx context.Context, eng *grid.Engine) (any, error) {
	res, err := eng.RunKeyed(ctx, req.key, req.job)
	if err != nil {
		return nil, err
	}
	return SimulateResponse{
		Workload: req.job.Workload,
		Key:      req.key,
		Result:   res,
	}, nil
}

// check accepts every generator spec: the generator clamps its parameters.
func (req *GenerateRequest) check() error { return nil }

// run materializes the program. The response's canonical name feeds
// straight back into /v1/partition, /v1/simulate, or a CLI -workload flag,
// and the listing lets a client inspect (or archive) exactly what that name
// denotes.
func (req *GenerateRequest) run(context.Context, *grid.Engine) (any, error) {
	p := req.Generator.params()
	prog := gen.Generate(p)
	resp := GenerateResponse{Name: p.Key(), Program: ir.Format(prog)}
	for _, fn := range prog.Fns {
		resp.Funcs++
		resp.Blocks += len(fn.Blocks)
		for _, b := range fn.Blocks {
			resp.Instrs += len(b.Instrs)
		}
	}
	return resp, nil
}

// maxCorpusN bounds the corpus size a single request may ask for, the same
// way maxPUs bounds machine size.
const maxCorpusN = 1000

// check validates the sweep. It has no synchronous endpoint: it runs only
// inside a job, whose event stream takes the progress (see Executors).
func (req *ExperimentRequest) check() error {
	switch req.Name {
	case "fig5", "table1", "summary":
		for _, n := range req.Workloads {
			if err := validateWorkload(n); err != nil {
				return err
			}
		}
		for _, n := range req.PUs {
			if n < 1 || n > maxPUs {
				return fmt.Errorf("pus %d out of range [1,%d]", n, maxPUs)
			}
		}
	case "corpus":
		if req.N < 0 || req.N > maxCorpusN {
			return fmt.Errorf("corpus n %d out of range [0,%d]", req.N, maxCorpusN)
		}
		for _, p := range req.Policies {
			if err := validatePolicy(p); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q (want fig5, table1, summary, or corpus)", req.Name)
	}
	return nil
}

// runExperiment runs one named figure/table/corpus sweep through the engine.
func runExperiment(ctx context.Context, eng *grid.Engine, req ExperimentRequest) (ExperimentResult, error) {
	runner := experiment.NewRunnerOn(eng).WithContext(ctx)
	out := ExperimentResult{Name: req.Name}
	var err error
	switch req.Name {
	case "fig5":
		out.Cells, err = experiment.Figure5(runner, req.PUs, req.Workloads)
	case "table1":
		out.Rows, err = experiment.Table1(runner, req.Workloads)
	case "summary":
		var cells []experiment.Fig5Cell
		cells, err = experiment.Figure5(runner, req.PUs, req.Workloads)
		if err == nil {
			out.Summaries = experiment.Summarize(cells)
		}
	case "corpus":
		n := req.N
		if n == 0 {
			n = 20
		}
		out.Corpus, err = runner.Corpus(experiment.CorpusSpec{
			Seed: req.Seed, N: n, Policies: req.Policies,
		})
	}
	return out, err
}

// runWithProgress is the one experiment progress loop. It runs req on eng in
// a goroutine and emits the engine's activity since the start as a
// `progress` event — once immediately, then every interval, and once more
// when the run ends, so the last progress event counts all of the sweep's
// work. Activity is a delta against the counters at the start: with a shared
// engine, absolute counters mix every client's work together. The run ends
// with ctx: the runner unwinds promptly once it does.
func runWithProgress(ctx context.Context, eng *grid.Engine, req ExperimentRequest,
	interval time.Duration, emit jobs.EmitFunc) (res ExperimentResult, err error) {
	base, start := eng.Stats(), time.Now()
	report := func() {
		d := eng.Stats().Delta(base)
		emit("progress", Progress{JobsDone: d.Done, Sims: d.Sims, CacheHits: d.CacheHits,
			Deduped: d.Deduped, ElapsedMS: time.Since(start).Milliseconds()})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = runExperiment(ctx, eng, req)
	}()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	report()
	for {
		select {
		case <-done:
			report()
			return res, err
		case <-tick.C:
			report()
		}
	}
}

// handleExperiment submits (or joins) the experiment job the body names and
// streams that job's event log, frame for frame what GET
// /v1/jobs/{id}/events replays. The sweep belongs to the job, not the
// connection: a client that goes away leaves it running for whoever else
// joined it, and DELETE /v1/jobs/{id} ends it.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ExperimentRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	rec, _, ok := s.submit(w, r, "experiment", req)
	if !ok {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+rec.ID)
	s.streamEvents(w, r, rec.ID, 0)
}
