package dist

import (
	"context"
	"fmt"
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

// TestTieredPromotion is the fallthrough contract: a disk miss that hits the
// remote peer is promoted to disk, so the next load is served from disk
// without asking the peer again.
func TestTieredPromotion(t *testing.T) {
	ctx := context.Background()
	srv := newArtifactServer(t)
	disk := NewDiskTier(t.TempDir())
	tiered := NewTiered(disk, fastRemote(srv.ts.URL))

	key := testKey(0)
	srv.put(key, grid.Artifact{Schema: grid.SchemaVersion, Result: testResult(2)})
	if _, ok := disk.Load(ctx, key, grid.Job{}); ok {
		t.Fatal("disk populated before any load")
	}
	res, ok := tiered.Load(ctx, key, grid.Job{})
	if !ok || res.IPC != 2 {
		t.Fatalf("tiered load = (%v, %v), want remote hit with IPC 2", res, ok)
	}
	if res, ok := disk.Load(ctx, key, grid.Job{}); !ok || res.IPC != 2 {
		t.Fatalf("disk load after remote hit = (%v, %v), want the promoted copy", res, ok)
	}
	gets := srv.gets.Load()
	if res, ok = tiered.Load(ctx, key, grid.Job{}); !ok || res.IPC != 2 {
		t.Fatalf("post-promotion load = (%v, %v), want disk hit", res, ok)
	}
	if n := srv.gets.Load() - gets; n != 0 {
		t.Errorf("post-promotion load sent %d GETs to the peer, want 0", n)
	}
}

func TestTieredWriteThrough(t *testing.T) {
	ctx := context.Background()
	srv := newArtifactServer(t)
	disk := NewDiskTier(t.TempDir())
	remote := fastRemote(srv.ts.URL)
	tiered := NewTiered(disk, remote)

	job := grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)}
	tiered.Store(ctx, testKey(0), job, testResult(3))
	if _, ok := disk.Load(ctx, testKey(0), grid.Job{}); !ok {
		t.Error("store did not reach the disk tier")
	}
	if n := srv.puts.Load(); n != 1 {
		t.Errorf("remote tier received %d PUTs, want 1", n)
	}
	if res, ok := remote.Load(ctx, testKey(0), grid.Job{}); !ok || res.IPC != 3 {
		t.Errorf("remote load = (%v, %v), want the stored IPC 3", res, ok)
	}
}

func TestTieredMissIsMiss(t *testing.T) {
	srv := newArtifactServer(t)
	tiered := NewTiered(NewDiskTier(t.TempDir()), fastRemote(srv.ts.URL))
	if _, ok := tiered.Load(context.Background(), testKey(9), grid.Job{}); ok {
		t.Fatal("empty tiers reported a hit")
	}
	if n := srv.gets.Load(); n != 1 {
		t.Errorf("a disk miss sent %d GETs to the peer, want 1", n)
	}
}

func TestTieredHealth(t *testing.T) {
	srv := newArtifactServer(t)
	tiered := NewTiered(NewDiskTier(t.TempDir()), fastRemote(srv.ts.URL))
	hs := tiered.Health(context.Background())
	if len(hs) != 2 || hs[0].Tier != "disk" || hs[1].Tier != "remote" {
		t.Fatalf("health = %+v, want [disk remote]", hs)
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
	c, r := BuildCache(CacheConfig{Dir: t.TempDir(), Remote: "http://127.0.0.1:1"})
	if c == nil || r == nil {
		t.Fatal("full config built nil cache or remote")
	}
	hs := c.Health(context.Background())
	if len(hs) != 2 {
		t.Fatalf("tier count = %d, want 2", len(hs))
	}
	for i, want := range []string{"disk", "remote"} {
		if got := hs[i].Tier; got != want {
			t.Errorf("tier %d = %s, want %s (fastest first)", i, got, want)
		}
	}
}
