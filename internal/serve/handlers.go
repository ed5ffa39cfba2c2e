package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/gen"
	"multiscalar/internal/grid"
	"multiscalar/internal/ir"
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

// decode strictly parses a JSON request body: unknown fields, trailing data,
// and oversized bodies are all rejected before any engine work starts. It
// writes the error response itself and reports ok=false.
func decode[T any](w http.ResponseWriter, r *http.Request, maxBytes int64) (v T, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return v, false
		}
		writeError(w, http.StatusBadRequest, "invalid_request", "decode request: "+err.Error())
		return v, false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "invalid_request", "trailing data after JSON body")
		return v, false
	}
	return v, true
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
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
	if s.cfg.Backend != nil {
		b := s.cfg.Backend(r.Context())
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
	if s.cfg.Cache == nil {
		writeError(w, http.StatusNotFound, "no_cache", "this server has no cache configured")
		return
	}
	res, ok := s.cfg.Cache.Load(r.Context(), key, grid.Job{})
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
	if s.cfg.Cache == nil {
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
	s.cfg.Cache.Store(r.Context(), key, job, a.Result)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Error("metrics_write", "err", err.Error())
	}
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[PartitionRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	opts, err := req.Select.core()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	name, err := resolveWorkload(req.Workload, req.Generator)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown_workload", err.Error())
		return
	}
	resp, err := partitionResult(r.Context(), s.eng, name, opts)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// partitionResult is the transport-free core of /v1/partition, shared with
// the async job executor so both paths produce identical bodies.
func partitionResult(ctx context.Context, eng *grid.Engine, name string, opts core.Options) (PartitionResponse, error) {
	part, err := eng.PartitionCtx(ctx, name, opts)
	if err != nil {
		return PartitionResponse{}, err
	}
	findings := verify.Partition(part)
	findings.Sort()
	resp := PartitionResponse{
		Workload:  name,
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

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[SimulateRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	opts, err := req.Select.core()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	cfg, err := req.Machine.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	name, err := resolveWorkload(req.Workload, req.Generator)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown_workload", err.Error())
		return
	}
	resp, err := simulateResult(r.Context(), s.eng, grid.Job{Workload: name, Select: opts, Config: cfg})
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// simulateResult is the transport-free core of /v1/simulate.
func simulateResult(ctx context.Context, eng *grid.Engine, job grid.Job) (SimulateResponse, error) {
	res, err := eng.RunCtx(ctx, job)
	if err != nil {
		return SimulateResponse{}, err
	}
	return SimulateResponse{
		Workload: job.Workload,
		Key:      grid.Key(job),
		Result:   res,
	}, nil
}

// handleGenerate materializes a property-based program: the response's
// canonical name feeds straight back into /v1/partition, /v1/simulate, or a
// CLI -workload flag, and the listing lets a client inspect (or archive)
// exactly what that name denotes.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[GenerateRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, generateResult(req.Generator.params()))
}

// generateResult is the transport-free core of /v1/generate.
func generateResult(p gen.Params) GenerateResponse {
	prog := gen.Generate(p)
	resp := GenerateResponse{Name: p.Key(), Program: ir.Format(prog)}
	for _, fn := range prog.Fns {
		resp.Funcs++
		resp.Blocks += len(fn.Blocks)
		for _, b := range fn.Blocks {
			resp.Instrs += len(b.Instrs)
		}
	}
	return resp
}

// sseStream is one Server-Sent Events response: the only place serve
// formats an event frame.
type sseStream struct {
	w http.ResponseWriter
	f http.Flusher
}

// startSSE answers 200 with the event-stream headers. When w cannot stream
// it writes the error response itself and reports false.
func startSSE(w http.ResponseWriter) (*sseStream, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	return &sseStream{w: w, f: f}, true
}

// frame writes one event without flushing. id 0 omits the id: line; a
// resumable stream numbers its events from 1.
func (s *sseStream) frame(id int64, name string, data []byte) error {
	if id > 0 {
		if _, err := fmt.Fprintf(s.w, "id: %d\n", id); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	return err
}

// event writes v as one unnumbered JSON event and flushes it, so clients
// observe progress live.
func (s *sseStream) event(name string, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := s.frame(0, name, blob); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// progressSince reports engine activity as deltas against the counters at
// request start — with a shared engine, absolute counters mix every
// client's work together.
func progressSince(base, now grid.Stats, start time.Time) Progress {
	d := now.Delta(base)
	return Progress{
		JobsDone:  d.Done,
		Sims:      d.Sims,
		CacheHits: d.CacheHits,
		Deduped:   d.Deduped,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
}

// runExperiment is the transport-free core of /v1/experiment: one named
// figure/table/corpus sweep through the engine. Shared by the SSE handler
// and the async job executor.
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

// runWithProgress is the one experiment progress loop, shared by the SSE
// handler and the job executor. It runs req on eng in a goroutine and passes
// report the engine's activity since the start — once immediately, then
// every interval — until the run ends or ctx does, and returns the result
// with its closing Progress block. A report error (the client is gone) is
// returned at once; the run still ends with ctx and drains into a buffered
// channel.
func runWithProgress(ctx context.Context, eng *grid.Engine, req ExperimentRequest,
	interval time.Duration, report func(Progress) error) (ExperimentResult, error) {
	base := eng.Stats()
	start := time.Now()
	type outcome struct {
		result ExperimentResult
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runExperiment(ctx, eng, req)
		done <- outcome{result: res, err: err}
	}()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	if err := report(progressSince(base, eng.Stats(), start)); err != nil {
		return ExperimentResult{}, err
	}
	var o outcome
loop:
	for {
		select {
		case o = <-done:
			break loop
		case <-ctx.Done():
			o = <-done // the runner unwinds promptly once ctx ends
			break loop
		case <-tick.C:
			if err := report(progressSince(base, eng.Stats(), start)); err != nil {
				return ExperimentResult{}, err
			}
		}
	}
	if o.err != nil {
		return ExperimentResult{}, o.err
	}
	o.result.Progress = progressSince(base, eng.Stats(), start)
	return o.result, nil
}

// handleExperiment streams a named experiment over SSE: `progress` events at
// the configured cadence (one immediately, so even instant runs stream at
// least one), then a terminal `result` event — or `error` on failure.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[ExperimentRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	sse, ok := startSSE(w)
	if !ok {
		return
	}

	ctx := r.Context()
	var gone error
	res, err := runWithProgress(ctx, s.eng, req, s.cfg.ProgressInterval, func(p Progress) error {
		gone = sse.event("progress", p)
		return gone
	})
	switch {
	case gone != nil:
		// Client gone: the runner's ctx cancels with the request. Nothing
		// more to write.
	case err != nil:
		code, status := "internal", "experiment failed"
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			code, status = "deadline_exceeded", "request deadline exceeded"
		}
		s.log.Error("experiment_error", "name", req.Name, "err", err.Error())
		sse.event("error", ErrorBody{Error: ErrorDetail{Code: code, Message: status + ": " + err.Error()}})
	default:
		sse.event("result", res)
	}
}
