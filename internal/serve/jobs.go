package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/jobs"
)

// This file is the asynchronous face of the service: POST /v1/jobs accepts
// the same request bodies as the synchronous endpoints but returns a job ID
// immediately; GET /v1/jobs/{id} polls status, GET /v1/jobs/{id}/events
// streams progress over SSE (resumable via Last-Event-ID), DELETE cancels.
// POST /v1/experiment is a submission that streams its job's events at once.
// Job identity is the content address of the canonicalized request, so two
// tenants submitting the same sweep share one execution and a resubmission
// after the job finished returns the stored result without running anything.

// JobSubmitRequest asks POST /v1/jobs to run one of the synchronous
// endpoints' request bodies asynchronously. Kind names the endpoint
// ("partition", "simulate", "generate", "experiment"); Request is that
// endpoint's exact JSON body.
type JobSubmitRequest struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request"`
}

// JobStatusResponse is the wire form of one job record. Result is the
// terminal payload (the synchronous endpoint's response body) once the job
// is done; Error explains failed and canceled states.
type JobStatusResponse struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	Tenant   string          `json:"tenant,omitempty"`
	Created  string          `json:"created,omitempty"`
	Started  string          `json:"started,omitempty"`
	Finished string          `json:"finished,omitempty"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

func jobStatus(rec jobs.Record) JobStatusResponse {
	resp := JobStatusResponse{
		ID:       rec.ID,
		Kind:     rec.Spec.Kind,
		State:    string(rec.State),
		Tenant:   rec.Tenant,
		Attempts: rec.Attempts,
		Error:    rec.Error,
		Result:   rec.Result,
	}
	if !rec.Created.IsZero() {
		resp.Created = rec.Created.UTC().Format(time.RFC3339Nano)
	}
	if !rec.Started.IsZero() {
		resp.Started = rec.Started.UTC().Format(time.RFC3339Nano)
	}
	if !rec.Finished.IsZero() {
		resp.Finished = rec.Finished.UTC().Format(time.RFC3339Nano)
	}
	return resp
}

// JobsStatus is the /healthz jobs block: queue and table counts plus the age
// of the longest-waiting queued job, the number an operator watches to tell
// "busy" from "stuck".
type JobsStatus struct {
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	Done           int   `json:"done"`
	Failed         int   `json:"failed"`
	Canceled       int   `json:"canceled"`
	OldestQueuedMS int64 `json:"oldest_queued_ms"`
}

// kinds names every request kind and strictly decodes its body: the one
// table job submission and the executors dispatch on.
var kinds = map[string]func(raw []byte) (request, error){
	"partition":  decodeAs[PartitionRequest],
	"simulate":   decodeAs[SimulateRequest],
	"generate":   decodeAs[GenerateRequest],
	"experiment": decodeAs[ExperimentRequest],
}

func decodeAs[T any, PT interface {
	*T
	request
}](raw []byte) (request, error) {
	v, err := strictDecode[T](bytes.NewReader(raw))
	return PT(v), err
}

// Executors builds the job-kind registry the manager runs: each executor
// decodes its payload and runs the kind's check, then runs it on eng — a
// sync kind through its endpoint's run, an experiment with a progress event
// every progressInterval, which must be positive.
func Executors(eng *grid.Engine, progressInterval time.Duration) map[string]jobs.Executor {
	if progressInterval <= 0 {
		panic("serve: Executors needs a positive progress interval")
	}
	out := make(map[string]jobs.Executor, len(kinds))
	for kind, parse := range kinds {
		out[kind] = func(ctx context.Context, spec jobs.Spec, emit jobs.EmitFunc) (any, error) {
			req, err := parse(spec.Payload)
			if err != nil {
				return nil, fmt.Errorf("decode job payload: %w", err)
			}
			if err := req.check(); err != nil {
				return nil, err
			}
			if exp, ok := req.(*ExperimentRequest); ok {
				return runWithProgress(ctx, eng, *exp, progressInterval, emit)
			}
			return req.(syncRequest).run(ctx, eng)
		}
	}
	return out
}

// JobCost estimates relative fair-queue cost per kind: an experiment sweep
// dominates a single simulation, which dominates static analysis. Ordering
// only — admission is never affected.
func JobCost(spec jobs.Spec) float64 {
	switch spec.Kind {
	case "experiment":
		return 10
	case "simulate":
		return 2
	default:
		return 1
	}
}

// tenantOf attributes a request for fair queueing and rate limiting. The
// X-Api-Key header is the tenant identity; absent keys pool into "anonymous"
// (one shared fair-queue lane and token bucket, so keyless clients cannot
// mint tenants).
func tenantOf(r *http.Request) string {
	if k := r.Header.Get("X-Api-Key"); k != "" {
		return k
	}
	return "anonymous"
}

// retryAfterSeconds converts backpressure into a retry hint. floorSec is the
// honest minimum (e.g. the limiter's token-refill time); depth scales the
// base with queue pressure; the random component spreads a simultaneously
// shed burst across the window instead of inviting it back as one
// synchronized stampede.
func retryAfterSeconds(floorSec, depth int) int {
	base := floorSec
	if base < 1 {
		base = 1
	}
	base += depth / 16
	if base > 30 {
		base = 30
	}
	return base + rand.IntN(base)
}

// pressure is the server's current backlog estimate for Retry-After scaling.
func (s *Server) pressure() int {
	d := len(s.admit)
	if s.cfg.Jobs != nil {
		d += s.cfg.Jobs.Stats().Queued
	}
	return d
}

// submit checks req, applies the tenant's submission limit, and submits (or
// joins) the job req names. It writes any error response itself and reports
// ok=false.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, req request) (rec jobs.Record, created, ok bool) {
	if err := req.check(); err != nil {
		writeCheckError(w, err)
		return rec, false, false
	}
	// The payload is the re-marshaled typed request, so formatting
	// differences — field order, whitespace, absent-vs-zero fields — never
	// split identical work across distinct job IDs.
	payload, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("serve: canonicalize %s request: %v", kind, err))
	}
	tenant := tenantOf(r)
	if allowed, retry := s.cfg.JobLimiter.Allow(tenant); !allowed {
		floor := int(retry / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(floor, s.pressure())))
		writeError(w, http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("tenant %q exceeded its submission rate; retry later", tenant))
		return rec, false, false
	}
	rec, created, err = s.cfg.Jobs.Submit(tenant, jobs.Spec{Kind: kind, Payload: payload})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
		return rec, false, false
	}
	return rec, created, true
}

// handleJobSubmit accepts a job, answering 202 when this call scheduled new
// work and 200 when an identical job already existed (queued, running, or
// finished — the body's state says which). Submissions are rate limited per
// tenant.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	sub, ok := decode[JobSubmitRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if len(sub.Request) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("missing request body for kind %q", sub.Kind))
		return
	}
	parse, known := kinds[sub.Kind]
	if !known {
		writeError(w, http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("unknown job kind %q (want partition, simulate, generate, or experiment)", sub.Kind))
		return
	}
	req, err := parse(sub.Request)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "decode request: "+err.Error())
		return
	}
	rec, created, ok := s.submit(w, r, sub.Kind, req)
	if !ok {
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, jobStatus(rec))
}

// jobFromPath validates the {id} path segment and resolves the record,
// writing the error response itself on failure.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (jobs.Record, bool) {
	id := r.PathValue("id")
	if err := jobs.ValidateID(id); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_id", err.Error())
		return jobs.Record{}, false
	}
	rec, ok := s.cfg.Jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job "+id)
		return jobs.Record{}, false
	}
	return rec, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(rec))
}

// handleJobList summarizes retained jobs, newest first, results elided (poll
// the individual job for its payload).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	recs := s.cfg.Jobs.List()
	out := make([]JobStatusResponse, len(recs))
	for i, rec := range recs {
		out[i] = jobStatus(rec)
		out[i].Result = nil
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := jobs.ValidateID(id); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_id", err.Error())
		return
	}
	rec, ok := s.cfg.Jobs.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job "+id)
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(rec))
}

// lastEventID parses the client's resume cursor: the standard Last-Event-ID
// header an EventSource sends on reconnect, or an ?after= query parameter
// for plain HTTP clients. Unparseable cursors restart from the beginning —
// duplicates are the safe failure mode, silent gaps are not.
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// handleJobEvents streams a job's event log from the client's cursor.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	s.streamEvents(w, r, rec.ID, lastEventID(r))
}

// streamEvents answers 200 text/event-stream with job id's event log after
// the cursor: progress deltas while it runs, then the terminal result or
// error event. Every event carries its sequence as the SSE id, so a dropped
// connection resumes exactly — reconnect with Last-Event-ID=N and the stream
// continues at N+1, no duplicates, no gaps. Streams on terminal jobs replay
// the retained log and close. This is the only place serve writes an event.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, id string, after int64) {
	f, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	f.Flush() // the client learns its job (Location) even while it queues
	for {
		evs, more, terminal, ok := s.cfg.Jobs.EventsSince(id, after)
		if !ok {
			return // evicted mid-stream
		}
		for _, ev := range evs {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Name, ev.Data); err != nil {
				return
			}
			after = ev.Seq
		}
		if len(evs) > 0 {
			f.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		case <-s.drained:
			return // the drain must not wait on a job the shutdown requeues
		}
	}
}
