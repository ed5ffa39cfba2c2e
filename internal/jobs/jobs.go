// Package jobs is the durable async job subsystem: a scheduling layer above
// the grid engine that turns long-running work (partition, simulate,
// experiment, corpus sweeps) into named, content-addressed jobs with a
// lifecycle clients poll or stream instead of holding a connection open.
//
// The design splits three concerns that the synchronous HTTP path conflated:
//
//   - identity: a job is addressed by the SHA-256 of its canonical spec, so
//     two tenants submitting the same sweep share one record and one
//     execution, and a warm resubmission returns the cached terminal result
//     without recomputing anything;
//   - durability: every state transition appends to a JSON-lines journal
//     under the cache directory before any reader can see it; on restart
//     the journal replays, terminal results are served again, and queued
//     or interrupted jobs are re-offered to the runners (a kill -9
//     mid-sweep costs only the cycles since the last grid cache write);
//   - fairness: submissions enter a per-tenant weighted-fair queue, so one
//     tenant's thousand-job backlog cannot starve another's single request,
//     and a token-bucket limiter sheds pathological submission rates before
//     they reach the queue at all.
//
// The manager executes jobs through pluggable executors (registered per
// kind by the serve layer), keeping this package free of HTTP and
// experiment types: it schedules work, it does not define it.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// SchemaVersion stamps every job ID and journal record. Bump it whenever the
// Spec encoding or Record semantics change: old journal entries stop
// replaying (they are dropped, not misread) and resubmissions mint fresh
// IDs instead of colliding with incompatible history.
//
// v2: journaled simulate results embed the grid cache key, which
// grid.SchemaVersion 4 changed; v1 records would serve v3 keys.
// v3: experiment results no longer carry a "progress" block; progress lives
// only in the job's event stream.
const SchemaVersion = 3

// Spec is what a job runs: a kind (naming a registered executor) and the
// canonical JSON payload the executor decodes. Callers must canonicalize the
// payload — re-marshal their typed request — before submission, so that
// formatting differences do not split one logical job into two IDs.
type Spec struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// IDFor derives a job's content address: the lowercase-hex SHA-256 of the
// schema-stamped spec. Identical specs collide by construction — that is the
// dedup mechanism — and the ID doubles as the consistent-hash routing key.
func IDFor(spec Spec) string {
	blob, err := json.Marshal(struct {
		Schema int    `json:"schema"`
		Kind   string `json:"kind"`
		// Payload hashes verbatim: it is already canonical JSON.
		Payload json.RawMessage `json:"payload"`
	}{SchemaVersion, spec.Kind, spec.Payload})
	if err != nil {
		// Spec is plain data; marshalling cannot fail without a programming
		// error in the caller's canonicalization.
		panic("jobs: id derivation: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed | canceled
//	queued → canceled                      (canceled before a runner took it)
//	running → queued                       (shutdown requeue; resumes on restart)
//	failed | canceled → queued             (explicit resubmission retries)
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Record is one job's durable state: what every journal entry carries and
// what the status API reports. Result is the executor's marshaled output,
// set only in StateDone; Error is set in StateFailed and StateCanceled.
type Record struct {
	ID       string    `json:"id"`
	Spec     Spec      `json:"spec"`
	Tenant   string    `json:"tenant"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Attempts counts execution starts: 1 for a normal run, more after
	// shutdown requeues or explicit resubmissions of a failed job.
	Attempts int             `json:"attempts"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// Event is one entry in a job's ordered progress stream. Seq starts at 1 and
// increases without gaps within one process lifetime, so an SSE client that
// reconnects with Last-Event-ID resumes exactly where it left off (see
// Manager.EventsSince for a cursor from an earlier process). A retry of a
// failed or canceled job starts a fresh stream numbered on from the old one.
// Name is the SSE event name ("progress", "result", "error"); Data is its
// JSON body.
type Event struct {
	Seq  int64           `json:"seq"`
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// ValidateID rejects anything that is not a lowercase-hex SHA-256 digest,
// mirroring grid.ValidateKey: job IDs appear in URLs and journal file
// contents, and must never be interpretable as paths or markup.
func ValidateID(id string) error {
	if len(id) != sha256.Size*2 {
		return fmt.Errorf("job id must be %d hex characters, got %d", sha256.Size*2, len(id))
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("job id must be lowercase hex")
		}
	}
	return nil
}
