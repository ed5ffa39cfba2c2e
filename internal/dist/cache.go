package dist

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// Tier is a grid.Cache with an identity and a reachability probe, so a
// tiered cache (and /healthz) can report per-tier status.
type Tier interface {
	grid.Cache
	// Name labels the tier in health reports and metrics ("lru", "disk",
	// "remote").
	Name() string
	// Ping reports whether the tier's backend is reachable right now. It
	// must be cheap: /healthz calls it on every scrape.
	Ping(ctx context.Context) error
}

// TierHealth is one tier's reachability snapshot.
type TierHealth struct {
	Tier string `json:"tier"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
}

// LRU is the in-memory tier: a bounded, mutex-guarded map with
// least-recently-used eviction. Results are stored by pointer and must be
// treated as read-only by callers — the same convention every engine memo
// already follows.
type LRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	res *sim.Result
}

// NewLRU returns an in-memory tier holding at most max results (max <= 0
// defaults to 1024).
func NewLRU(max int) *LRU {
	if max <= 0 {
		max = 1024
	}
	return &LRU{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Name implements Tier.
func (c *LRU) Name() string { return "lru" }

// Ping implements Tier: memory is always reachable.
func (c *LRU) Ping(context.Context) error { return nil }

// Load implements grid.Cache.
func (c *LRU) Load(_ context.Context, key string, _ grid.Job) (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// Store implements grid.Cache.
func (c *LRU) Store(_ context.Context, key string, _ grid.Job, res *sim.Result) {
	if res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// Len reports the resident entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// DiskTier adapts grid.DiskCache to the Tier interface.
type DiskTier struct {
	*grid.DiskCache
}

// NewDiskTier returns the disk tier rooted at dir.
func NewDiskTier(dir string) DiskTier { return DiskTier{grid.NewDiskCache(dir)} }

// Name implements Tier.
func (t DiskTier) Name() string { return "disk" }

// Ping implements Tier: the directory must exist or be creatable.
func (t DiskTier) Ping(context.Context) error {
	if err := os.MkdirAll(t.Dir(), 0o755); err != nil {
		return fmt.Errorf("cache dir %s: %w", t.Dir(), err)
	}
	return nil
}

// Tiered is a grid.Cache over an ordered tier list, fastest first. Load
// probes in order and promotes a lower-tier hit into every tier above it
// (a disk hit becomes an LRU entry; a remote hit lands on local disk), so
// repeated reads settle into the fastest tier that fits. Store writes
// through every tier, which is how a worker publishes results to the fleet:
// its remote tier PUTs to the shared cache.
type Tiered struct {
	tiers []Tier
}

// NewTiered composes tiers fastest-first. At least one tier is required.
func NewTiered(tiers ...Tier) *Tiered {
	if len(tiers) == 0 {
		panic("dist: NewTiered needs at least one tier")
	}
	return &Tiered{tiers: tiers}
}

// Load implements grid.Cache with upward promotion.
func (t *Tiered) Load(ctx context.Context, key string, job grid.Job) (*sim.Result, bool) {
	for i, tier := range t.tiers {
		res, ok := probeTier(ctx, tier, key, job)
		if !ok {
			continue
		}
		for _, upper := range t.tiers[:i] {
			upper.Store(ctx, key, job, res)
		}
		return res, true
	}
	return nil, false
}

// probeTier wraps one tier probe in a cache.<tier> span carrying the hit
// outcome, so a trace shows which tier answered (and how long the remote
// round trip took). Free when the context is untraced.
func probeTier(ctx context.Context, tier Tier, key string, job grid.Job) (res *sim.Result, ok bool) {
	ctx, sp := span.Start(ctx, "cache."+tier.Name())
	defer func() {
		if sp != nil {
			sp.SetAttr("hit", strconv.FormatBool(ok))
		}
		sp.End(nil)
	}()
	return tier.Load(ctx, key, job)
}

// Store implements grid.Cache: write-through to every tier.
func (t *Tiered) Store(ctx context.Context, key string, job grid.Job, res *sim.Result) {
	ctx, sp := span.Start(ctx, "cache.publish")
	defer sp.End(nil)
	for _, tier := range t.tiers {
		tier.Store(ctx, key, job, res)
	}
}

// Health pings every tier in order.
func (t *Tiered) Health(ctx context.Context) []TierHealth {
	out := make([]TierHealth, len(t.tiers))
	for i, tier := range t.tiers {
		out[i] = TierHealth{Tier: tier.Name(), OK: true}
		if err := tier.Ping(ctx); err != nil {
			out[i].OK = false
			out[i].Err = err.Error()
		}
	}
	return out
}

// Tiers exposes the composed tier list (for stats reporting).
func (t *Tiered) Tiers() []Tier { return t.tiers }

// CacheConfig names the tier stack the CLIs build from flags: an in-memory
// LRU in front of a disk store in front of a remote peer, each optional.
type CacheConfig struct {
	// LRUSize is the memory tier's entry budget (0 = no memory tier).
	LRUSize int
	// Dir is the disk tier root ("" = no disk tier).
	Dir string
	// Remote is the remote peer's base URL ("" = no remote tier).
	Remote string
	// RemoteOptions tunes the remote tier (timeouts, retries, metrics).
	RemoteOptions RemoteOptions
}

// BuildCache composes the configured tiers fastest-first. The second return
// is the remote tier's handle for stats reporting (nil when Remote is
// empty); the Tiered is nil when no tier at all is configured.
func BuildCache(cfg CacheConfig) (*Tiered, *RemoteCache) {
	var tiers []Tier
	if cfg.LRUSize > 0 {
		tiers = append(tiers, NewLRU(cfg.LRUSize))
	}
	if cfg.Dir != "" {
		tiers = append(tiers, NewDiskTier(cfg.Dir))
	}
	var remote *RemoteCache
	if cfg.Remote != "" {
		remote = NewRemoteCache(cfg.Remote, cfg.RemoteOptions)
		tiers = append(tiers, remote)
	}
	if len(tiers) == 0 {
		return nil, nil
	}
	return NewTiered(tiers...), remote
}
