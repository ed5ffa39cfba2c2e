package dist

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs/span"
	"multiscalar/internal/sim"
)

// Tier is a grid.Cache with an identity and a reachability probe, so a
// tiered cache (and /healthz) can report per-tier status.
type Tier interface {
	grid.Cache
	// Name labels the tier in health reports and spans ("disk" or
	// "remote").
	Name() string
	// Ping reports whether the tier's backend is reachable right now. It
	// must be cheap: /healthz calls it on every scrape.
	Ping(ctx context.Context) error
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
// probes in order and promotes a lower-tier hit into every tier above it (a
// remote hit lands on local disk), so repeated reads settle into the
// fastest tier. Store writes through every tier: a result computed next to
// a remote tier is also published to that peer.
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
func (t *Tiered) Health(ctx context.Context) []grid.TierHealth {
	out := make([]grid.TierHealth, len(t.tiers))
	for i, tier := range t.tiers {
		out[i] = grid.TierHealth{Tier: tier.Name(), OK: true}
		if err := tier.Ping(ctx); err != nil {
			out[i].OK = false
			out[i].Err = err.Error()
		}
	}
	return out
}

// CacheConfig names the tier stack the CLIs build from flags: a disk store
// in front of a remote peer, each optional. The engine's memo already holds
// every result the process has seen, so there is no in-memory tier.
type CacheConfig struct {
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
