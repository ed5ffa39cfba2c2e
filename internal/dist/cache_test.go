package dist

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

// testKey returns a distinct, valid (64 lowercase hex) cache key per index.
func testKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func testResult(ipc float64) *sim.Result {
	return &sim.Result{IPC: ipc, Cycles: 100, Instrs: uint64(100 * ipc)}
}

func TestLRUEviction(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(2)
	c.Store(ctx, testKey(0), grid.Job{}, testResult(1))
	c.Store(ctx, testKey(1), grid.Job{}, testResult(2))
	// Touch key 0 so key 1 becomes the eviction victim.
	if _, ok := c.Load(ctx, testKey(0), grid.Job{}); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Store(ctx, testKey(2), grid.Job{}, testResult(3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Load(ctx, testKey(1), grid.Job{}); ok {
		t.Error("least-recently-used key 1 survived eviction")
	}
	for _, i := range []int{0, 2} {
		if _, ok := c.Load(ctx, testKey(i), grid.Job{}); !ok {
			t.Errorf("key %d evicted, want resident", i)
		}
	}
}

// TestTieredPromotion is the disk→LRU half of the fallthrough contract: a
// miss in the memory tier that hits disk is promoted, so the next load is
// served from memory even if the disk copy disappears.
func TestTieredPromotion(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	lru := NewLRU(8)
	disk := NewDiskTier(dir)
	tiered := NewTiered(lru, disk)

	key := testKey(0)
	disk.Store(ctx, key, grid.Job{}, testResult(2))
	if lru.Len() != 0 {
		t.Fatal("LRU populated before any load")
	}
	res, ok := tiered.Load(ctx, key, grid.Job{})
	if !ok || res.IPC != 2 {
		t.Fatalf("tiered load = (%v, %v), want disk hit with IPC 2", res, ok)
	}
	if lru.Len() != 1 {
		t.Fatalf("LRU len = %d after disk hit, want 1 (promotion)", lru.Len())
	}
	// Remove the disk artifact: a second load must be served by the
	// promoted in-memory copy.
	if err := os.Remove(filepath.Join(dir, key+".json")); err != nil {
		t.Fatal(err)
	}
	if res, ok = tiered.Load(ctx, key, grid.Job{}); !ok || res.IPC != 2 {
		t.Fatalf("post-promotion load = (%v, %v), want LRU hit", res, ok)
	}
}

func TestTieredWriteThrough(t *testing.T) {
	ctx := context.Background()
	lru := NewLRU(8)
	disk := NewDiskTier(t.TempDir())
	tiered := NewTiered(lru, disk)

	job := grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)}
	tiered.Store(ctx, testKey(0), job, testResult(3))
	if _, ok := lru.Load(ctx, testKey(0), grid.Job{}); !ok {
		t.Error("store did not reach the LRU tier")
	}
	if _, ok := disk.Load(ctx, testKey(0), grid.Job{}); !ok {
		t.Error("store did not reach the disk tier")
	}
}

func TestTieredMissIsMiss(t *testing.T) {
	tiered := NewTiered(NewLRU(8), NewDiskTier(t.TempDir()))
	if _, ok := tiered.Load(context.Background(), testKey(9), grid.Job{}); ok {
		t.Fatal("empty tiers reported a hit")
	}
}

func TestTieredHealth(t *testing.T) {
	tiered := NewTiered(NewLRU(8), NewDiskTier(t.TempDir()))
	hs := tiered.Health(context.Background())
	if len(hs) != 2 || hs[0].Tier != "lru" || hs[1].Tier != "disk" {
		t.Fatalf("health = %+v, want [lru disk]", hs)
	}
	for _, h := range hs {
		if !h.OK {
			t.Errorf("tier %s unhealthy: %s", h.Tier, h.Err)
		}
	}
}

func TestBuildCache(t *testing.T) {
	if c, r := BuildCache(CacheConfig{}); c != nil || r != nil {
		t.Fatalf("empty config built %v/%v, want nil/nil", c, r)
	}
	c, r := BuildCache(CacheConfig{LRUSize: 4, Dir: t.TempDir(), Remote: "http://127.0.0.1:1"})
	if c == nil || r == nil {
		t.Fatal("full config built nil cache or remote")
	}
	if n := len(c.Tiers()); n != 3 {
		t.Fatalf("tier count = %d, want 3", n)
	}
	for i, want := range []string{"lru", "disk", "remote"} {
		if got := c.Tiers()[i].Name(); got != want {
			t.Errorf("tier %d = %s, want %s (fastest first)", i, got, want)
		}
	}
}
