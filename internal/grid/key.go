package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"multiscalar/internal/core"
)

// SchemaVersion stamps every cache key and on-disk artifact. Bump it
// whenever core.Options, sim.Config, sim.Result, or the simulation's
// semantics change: old artifacts stop matching and are transparently
// recomputed rather than served stale.
//
// v2: artifacts no longer carry the per-task timeline records, so v1
// artifacts — which could embed them — are invalidated.
//
// v3: core.Options gained Policy/SizeBudget/CommBudget (the selection-policy
// zoo), changing the JSON encoding every key hashes; v2 keys for the same
// logical job no longer match and must be recomputed.
//
// v4: sim.Config lost its timeline-recording flag (the task timeline is now
// a view of the simulator's event stream, never part of a Result), so the
// Job encoding every key hashes changed.
const SchemaVersion = 4

// schemaFingerprint pins the recursive field shape of core.Options and
// sim.Config (msvet's cachekey analyzer recomputes it on every run). When a
// field is added, removed, renamed, or retyped anywhere under either struct,
// msvet fails with the new expected value: audit that the JSON encoding
// still covers every field, bump SchemaVersion if old artifacts are now
// wrong, and paste the new fingerprint here.
const schemaFingerprint = "9067f68d11e8"

// The fingerprint is consumed by tooling, not runtime code; the blank use
// keeps unused-symbol linters from suggesting its removal.
var _ = schemaFingerprint

// keyOf hashes a canonical JSON encoding of its payload. Both option
// structs contain only exported scalar fields, so encoding/json emits them
// in declaration order and the digest is stable across processes.
func keyOf(payload any) string {
	blob, err := json.Marshal(payload)
	if err != nil {
		// Options and Config are plain data; marshalling cannot fail
		// without a programming error in this package.
		panic("grid: key derivation: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Key returns the content address of a job's simulation result.
func Key(job Job) string {
	return keyOf(struct {
		Schema int
		Kind   string
		Job    Job
	}{SchemaVersion, "sim", job})
}

// ValidateKey rejects anything that is not a lowercase-hex sha256 digest —
// both malformed requests and path-traversal attempts (cache keys become
// disk file names). Every key Key and PartitionKey produce passes.
func ValidateKey(key string) error { //msvet:allow cachekey (validates key syntax, derives nothing)
	if len(key) != sha256.Size*2 {
		return fmt.Errorf("key must be %d hex characters, got %d", sha256.Size*2, len(key))
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return errors.New("key must be lowercase hex")
		}
	}
	return nil
}

// PartitionKey returns the content address of a task selection.
func PartitionKey(workload string, opts core.Options) string {
	return keyOf(struct {
		Schema   int
		Kind     string
		Workload string
		Select   core.Options
	}{SchemaVersion, "part", workload, opts})
}

// prepareKey addresses a prepared program in the engine's memo: the workload
// and the options that reach core.Prepare, so every selection arm with the
// same projection shares one entry.
func prepareKey(workload string, opts core.Options) string {
	return keyOf(struct {
		Schema   int
		Kind     string
		Workload string
		Prepare  core.Options
	}{SchemaVersion, "prep", workload, core.PrepareOptions(opts)})
}
