package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/grid"
	"multiscalar/internal/sim"
)

func putArtifact(t *testing.T, client *http.Client, url string, a grid.Artifact) *http.Response {
	t.Helper()
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestCacheEndpoints covers the peer-facing cache surface, served from the
// engine's cache: PUT then GET round-trips an artifact, absent keys and
// malformed keys are rejected, and stale-schema publications are refused.
func TestCacheEndpoints(t *testing.T) {
	cache := grid.NewDiskCache(t.TempDir())
	srv, _ := newTestServer(t, grid.Options{Workers: 1, Cache: cache}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	job := grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)}
	key := grid.Key(job)
	res := &sim.Result{IPC: 1.5, Cycles: 100, Instrs: 150}

	// GET before anything is published: a plain miss.
	resp, body := getBody(t, client, ts.URL+"/v1/cache/"+key)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "not_cached") {
		t.Fatalf("cold GET = %d %q, want 404 not_cached", resp.StatusCode, body)
	}

	// PUT, then GET it back.
	a := grid.Artifact{Schema: grid.SchemaVersion, Workload: job.Workload, Config: job.Config, Result: res}
	if resp := putArtifact(t, client, ts.URL+"/v1/cache/"+key, a); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", resp.StatusCode)
	}
	resp, body = getBody(t, client, ts.URL+"/v1/cache/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET = %d %q, want 200", resp.StatusCode, body)
	}
	var got grid.Artifact
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != grid.SchemaVersion || got.Result == nil || got.Result.IPC != 1.5 {
		t.Fatalf("artifact = %+v, want schema %d and IPC 1.5", got, grid.SchemaVersion)
	}

	// The published artifact must be visible to the engine-facing cache.
	if cached, ok := cache.Load(context.Background(), key, grid.Job{}); !ok || cached.IPC != 1.5 {
		t.Fatalf("disk cache = (%v, %v), want the published result", cached, ok)
	}

	// Malformed keys are rejected before touching the cache.
	resp, body = getBody(t, client, ts.URL+"/v1/cache/not-a-key")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "invalid_key") {
		t.Fatalf("bad key GET = %d %q, want 400 invalid_key", resp.StatusCode, body)
	}
	if resp := putArtifact(t, client, ts.URL+"/v1/cache/"+strings.Repeat("Z", 64), a); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key PUT = %d, want 400", resp.StatusCode)
	}

	// Stale schemas are refused so a mixed-version fleet cannot poison the
	// store.
	stale := a
	stale.Schema = grid.SchemaVersion - 1
	if resp := putArtifact(t, client, ts.URL+"/v1/cache/"+key, stale); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale PUT = %d, want 400", resp.StatusCode)
	}

	// Wrong method on the cache path: structured 405 naming the verbs.
	resp, body = postJSON(t, client, ts.URL+"/v1/cache/"+key, "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(body, "method_not_allowed") {
		t.Fatalf("POST on cache = %d %q, want 405", resp.StatusCode, body)
	}
}

func TestCacheEndpointsWithoutCache(t *testing.T) {
	srv, _ := newTestServer(t, grid.Options{Workers: 1}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	key := strings.Repeat("a", 64)
	resp, body := getBody(t, ts.Client(), ts.URL+"/v1/cache/"+key)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "no_cache") {
		t.Fatalf("GET without cache = %d %q, want 404 no_cache", resp.StatusCode, body)
	}
	if _, body := getBody(t, ts.Client(), ts.URL+"/healthz"); strings.Contains(body, "backend") {
		t.Errorf("healthz without cache = %s, want no backend block", body)
	}
}

// healthCache is an engine cache with tiers that report fixed health.
type healthCache struct {
	*grid.DiskCache
	tiers []grid.TierHealth
}

func (c healthCache) Health(context.Context) []grid.TierHealth { return c.tiers }

// TestHealthzBackend: the health body carries the tier health the engine's
// cache reports, and an unreachable tier degrades the reported status
// without failing the probe (the server still serves — every tier is
// fail-open).
func TestHealthzBackend(t *testing.T) {
	cache := healthCache{grid.NewDiskCache(t.TempDir()), []grid.TierHealth{
		{Tier: "disk", OK: true},
		{Tier: "remote", OK: false, Err: "connection refused"},
	}}
	srv, _ := newTestServer(t, grid.Options{Workers: 1, Cache: cache}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 (degraded is not down)", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("status = %q, want degraded with an unreachable tier", h.Status)
	}
	if h.Backend == nil || len(h.Backend.CacheTiers) != 2 {
		t.Fatalf("backend = %+v, want both tiers reported", h.Backend)
	}
	if h.Backend.CacheTiers[1].Err != "connection refused" {
		t.Errorf("tier error %q not propagated", h.Backend.CacheTiers[1].Err)
	}
}
