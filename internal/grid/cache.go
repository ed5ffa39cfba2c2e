package grid

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"

	"multiscalar/internal/core"
	"multiscalar/internal/sim"
)

// Cache is the engine's result store: a content-addressed map from job key
// to simulation result. Implementations are strictly best-effort — Load
// answers (nil, false) for anything it cannot produce a valid result for
// (absent, corrupt, stale schema, backend unreachable) and Store failures
// are silent (the result is still returned to the caller) — so a broken
// cache degrades to recomputation, never to a wrong answer or an error.
//
// The ctx carries the requesting job's deadline; implementations that talk
// to a network (internal/dist's remote tier) honor it, local tiers ignore
// it. The job passed to Load is advisory — it names the work the key was
// derived from, so a tiered cache can promote a lower-tier hit upward with
// full artifact metadata; callers that only have the key (the serve cache
// endpoints) pass the zero Job and promoted artifacts simply carry no
// inspection fields. Implementations must be safe for concurrent use.
type Cache interface {
	Load(ctx context.Context, key string, job Job) (*sim.Result, bool)
	Store(ctx context.Context, key string, job Job, res *sim.Result)
}

// TierHealth is one cache tier's reachability snapshot. A Cache made of
// tiers reports them through a Health(context.Context) []TierHealth method,
// which mssrv's /healthz shows as its backend block.
type TierHealth struct {
	Tier string `json:"tier"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
}

// Artifact is the persisted and wire form of one cached result, shared by
// the disk store and the remote cache protocol (GET/PUT /v1/cache/{key}).
// The dist worker report is not an Artifact: it carries a bare *sim.Result
// under the job's key. Workload, Select, and Config are stored alongside
// the result for human inspection and so a receiver can reconstruct the
// Job; correctness rests on the key alone.
type Artifact struct {
	Schema   int
	Workload string
	Select   core.Options
	Config   sim.Config
	Result   *sim.Result
}

// DiskCache is the content-addressed on-disk Cache: one JSON artifact per
// key under dir. Any read, decode, or version mismatch is a miss and the
// entry is recomputed and overwritten.
type DiskCache struct {
	dir string
}

// NewDiskCache returns a disk cache rooted at dir. The directory is created
// on first store.
func NewDiskCache(dir string) *DiskCache { return &DiskCache{dir: dir} }

// Dir reports the cache root.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Load implements Cache. The ctx and job are ignored: local disk reads are
// fast enough that honoring a deadline would cost more than it saves, and
// the disk tier never promotes.
func (c *DiskCache) Load(_ context.Context, key string, _ Job) (*sim.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil || a.Schema != SchemaVersion || a.Result == nil {
		return nil, false
	}
	return a.Result, true
}

// Store implements Cache: best-effort write-then-rename, so concurrent
// readers (and a crashed writer) never observe a torn artifact.
func (c *DiskCache) Store(_ context.Context, key string, job Job, res *sim.Result) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	blob, err := json.Marshal(Artifact{
		Schema:   SchemaVersion,
		Workload: job.Workload,
		Select:   job.Select,
		Config:   job.Config,
		Result:   res,
	})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
