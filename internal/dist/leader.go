package dist

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// Wire types of the worker protocol. grid.Job marshals directly — both of
// its option structs are plain exported data.

// RegisterRequest announces a worker to the leader.
type RegisterRequest struct {
	// Hint is a free-form label the worker offers (host:pid); the leader
	// assigns the authoritative name.
	Hint string `json:"hint,omitempty"`
}

// RegisterResponse carries the worker's assigned identity and lease terms.
type RegisterResponse struct {
	Worker  string `json:"worker"`
	LeaseMS int64  `json:"lease_ms"`
}

// PullRequest asks for the next job.
type PullRequest struct {
	Worker string `json:"worker"`
}

// PullResponse is one of three answers: a job, "nothing right now", or
// "the run is over — exit". Trace, when present, is the dispatching
// request's span context: the worker parents its execution spans under it
// so one trace covers the job end to end.
type PullResponse struct {
	Key    string            `json:"key,omitempty"`
	Job    *grid.Job         `json:"job,omitempty"`
	Trace  *span.SpanContext `json:"trace,omitempty"`
	None   bool              `json:"none,omitempty"`
	Closed bool              `json:"closed,omitempty"`
}

// ReportRequest delivers one finished job, plus any trace spans the worker
// recorded while executing it (empty when either side is untraced). It is
// the only way a remote result reaches the leader: the leader's engine
// stores it in the leader's own cache tiers.
type ReportRequest struct {
	Worker string          `json:"worker"`
	Key    string          `json:"key"`
	Result *sim.Result     `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Spans  []span.SpanData `json:"spans,omitempty"`
}

// LeaderOptions configures a Leader.
type LeaderOptions struct {
	// PollWait bounds how long /v1/dist/pull holds an empty request open
	// waiting for work before answering "none" (0 = 500ms). Long-polling
	// keeps idle workers off the network without delaying fresh jobs.
	PollWait time.Duration
	// Logger receives protocol errors (nil = discard).
	Logger *log.Logger
	// Tracer, when non-nil, ingests worker-reported spans into their
	// originating traces and mounts GET /debug/traces, /debug/traces/{id},
	// and /debug/requests on the leader's handler.
	Tracer *span.Tracer
}

// Leader mounts a Scheduler on HTTP for remote workers: POST
// /v1/dist/register, /v1/dist/pull (long-poll), /v1/dist/report, and
// GET /healthz reporting worker and queue state. Mount Handler on any
// listener; msreport does so on -workers.
type Leader struct {
	sched    *Scheduler
	pollWait time.Duration
	log      *log.Logger
	tracer   *span.Tracer
	mux      *http.ServeMux
}

// NewLeader wires a leader around a scheduler.
func NewLeader(s *Scheduler, opts LeaderOptions) *Leader {
	if opts.PollWait <= 0 {
		opts.PollWait = 500 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	l := &Leader{
		sched:    s,
		pollWait: opts.PollWait,
		log:      opts.Logger,
		tracer:   opts.Tracer,
		mux:      http.NewServeMux(),
	}
	l.mux.HandleFunc("POST /v1/dist/register", l.handleRegister)
	l.mux.HandleFunc("POST /v1/dist/pull", l.handlePull)
	l.mux.HandleFunc("POST /v1/dist/report", l.handleReport)
	l.mux.HandleFunc("GET /healthz", l.handleHealthz)
	if l.tracer != nil {
		span.RegisterDebug(l.mux, l.tracer)
	}
	return l
}

// Handler returns the leader's HTTP surface.
func (l *Leader) Handler() http.Handler { return l.mux }

func (l *Leader) writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		l.log.Printf("level=error msg=dist_encode err=%v", err)
		http.Error(w, "encode failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(blob, '\n'))
}

func decodeBody[T any](w http.ResponseWriter, r *http.Request) (v T, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&v); err != nil {
		http.Error(w, "decode request: "+err.Error(), http.StatusBadRequest)
		return v, false
	}
	return v, true
}

func (l *Leader) handleRegister(w http.ResponseWriter, r *http.Request) {
	if _, ok := decodeBody[RegisterRequest](w, r); !ok {
		return
	}
	name, lease := l.sched.Register(true)
	l.log.Printf("level=info msg=dist_register worker=%s", name)
	l.writeJSON(w, http.StatusOK, RegisterResponse{Worker: name, LeaseMS: lease.Milliseconds()})
}

func (l *Leader) handlePull(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[PullRequest](w, r)
	if !ok {
		return
	}
	if !remoteWorkerName(req.Worker) {
		http.Error(w, "worker name must be one the leader assigns (w<n>)", http.StatusBadRequest)
		return
	}
	// Long-poll: retry the scheduler at a short cadence until work appears,
	// the run closes, the poll window expires, or the worker hangs up.
	deadline := time.NewTimer(l.pollWait)
	defer deadline.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		key, job, sc, ok, closed := l.sched.Pull(req.Worker)
		switch {
		case closed:
			l.writeJSON(w, http.StatusOK, PullResponse{Closed: true})
			return
		case ok:
			resp := PullResponse{Key: key, Job: &job}
			if sc.Valid() {
				resp.Trace = &sc
			}
			l.writeJSON(w, http.StatusOK, resp)
			return
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			l.writeJSON(w, http.StatusOK, PullResponse{None: true})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// remoteWorkerName reports whether name has the shape Register gives a
// remote worker: "w" and a number. A pull re-admits its worker and names a
// metric after it, so a pull must not be able to mint any other name.
func remoteWorkerName(name string) bool {
	n, ok := strings.CutPrefix(name, "w")
	if !ok || n == "" {
		return false
	}
	for _, c := range n {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func (l *Leader) handleReport(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[ReportRequest](w, r)
	if !ok {
		return
	}
	if req.Worker == "" || req.Key == "" {
		http.Error(w, "missing worker or key", http.StatusBadRequest)
		return
	}
	if req.Result == nil && req.Error == "" {
		http.Error(w, "report carries neither result nor error", http.StatusBadRequest)
		return
	}
	// Ingest spans BEFORE completing the job: Report unblocks the Dispatch
	// waiter, which ends the dispatch span and may finalize the whole trace
	// — the worker's spans must already be merged by then.
	l.tracer.Ingest(req.Spans)
	l.sched.Report(req.Worker, req.Key, req.Result, req.Error)
	w.WriteHeader(http.StatusNoContent)
}

// LeaderHealth is the leader's GET /healthz body.
type LeaderHealth struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"` // remote workers currently registered
	Queued  int    `json:"queued"`
	Leased  int    `json:"leased"`
	Done    int64  `json:"done"`
}

func (l *Leader) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := l.sched.Stats()
	l.writeJSON(w, http.StatusOK, LeaderHealth{
		Status:  "ok",
		Workers: st.RemoteWorkers,
		Queued:  st.Queued,
		Leased:  st.Leased,
		Done:    st.Completed,
	})
}
