package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multiscalar/internal/core"
	"multiscalar/internal/experiment"
	"multiscalar/internal/grid"
	"multiscalar/internal/serve"
	"multiscalar/internal/sim"
)

// TestRemoteCacheAgainstServe runs the remote tier against the real serve
// cache handlers: a disk cache warmed by a serial Figure 5 sweep, served by
// serve.New, answers every job of a second sweep whose engine has no other
// tier, so nothing is simulated and the figure prints the same bytes.
func TestRemoteCacheAgainstServe(t *testing.T) {
	wls, pus := []string{"compress", "tomcatv"}, []int{4, 8}
	disk := grid.NewDiskCache(t.TempDir())
	warm, err := experiment.Figure5(experiment.NewRunnerOn(grid.New(grid.Options{Workers: 1, Cache: disk})), pus, wls)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Engine: grid.New(grid.Options{Workers: 1, Cache: disk})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	remote := fastRemote(ts.URL)
	if err := remote.Ping(context.Background()); err != nil {
		t.Errorf("ping a serve with a cache: %v", err)
	}
	eng := grid.New(grid.Options{Workers: 2, Cache: remote})
	cells, err := experiment.Figure5(experiment.NewRunnerOn(eng), pus, wls)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := experiment.FormatFigure5(cells), experiment.FormatFigure5(warm); got != want {
		t.Errorf("Figure 5 through the remote tier differs:\n%s\nwant:\n%s", got, want)
	}
	if s := eng.Stats(); s.Sims != 0 {
		t.Errorf("engine simulated %d jobs, want 0 (every job a remote hit)", s.Sims)
	}
	if st := remote.Stats(); st.Hits != 32 || st.Errors != 0 {
		t.Errorf("remote stats = %+v, want 32 hits and 0 errors", st)
	}
}

// artifactServer serves one artifact under /v1/cache/{key}, counting GETs
// and recording PUTs. An absent key answers as serve does: 404 with the
// not_cached code.
type artifactServer struct {
	ts   *httptest.Server
	gets atomic.Int64
	puts atomic.Int64

	// respond lets tests override the GET behavior (nil = serve artifacts).
	respond func(w http.ResponseWriter, key string)
	stored  map[string][]byte
}

func newArtifactServer(t *testing.T) *artifactServer {
	t.Helper()
	s := &artifactServer{stored: make(map[string][]byte)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		s.gets.Add(1)
		key := r.PathValue("key")
		if s.respond != nil {
			s.respond(w, key)
			return
		}
		blob, ok := s.stored[key]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":{"code":"not_cached","message":"no artifact"}}`))
			return
		}
		w.Write(blob)
	})
	mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		s.puts.Add(1)
		var a grid.Artifact
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		enc, _ := json.Marshal(a)
		s.stored[r.PathValue("key")] = enc
		w.WriteHeader(http.StatusNoContent)
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *artifactServer) put(key string, a grid.Artifact) {
	blob, err := json.Marshal(a)
	if err != nil {
		panic(err)
	}
	s.stored[key] = blob
}

func fastRemote(base string) *RemoteCache {
	return NewRemoteCache(base, RemoteOptions{
		Timeout: 2 * time.Second,
		Backoff: time.Millisecond,
	})
}

func TestRemoteHitMissPut(t *testing.T) {
	ctx := context.Background()
	srv := newArtifactServer(t)
	rc := fastRemote(srv.ts.URL)

	key := testKey(0)
	srv.put(key, grid.Artifact{Schema: grid.SchemaVersion, Result: testResult(2)})
	res, ok := rc.Load(ctx, key, grid.Job{})
	if !ok || res.IPC != 2 {
		t.Fatalf("Load = (%v, %v), want hit with IPC 2", res, ok)
	}
	if _, ok := rc.Load(ctx, testKey(1), grid.Job{}); ok {
		t.Fatal("absent key reported a hit")
	}

	job := grid.Job{Workload: "compress", Select: core.Options{}, Config: sim.DefaultConfig(4)}
	rc.Store(ctx, testKey(2), job, testResult(3))
	if res, ok := rc.Load(ctx, testKey(2), grid.Job{}); !ok || res.IPC != 3 {
		t.Fatalf("round-trip Load = (%v, %v), want IPC 3", res, ok)
	}
	st := rc.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 put / 0 errors", st)
	}
}

// TestRemoteCorruptionIsMiss mirrors the disk-cache corruption tests: a
// body that is not JSON, an artifact from an older schema, and an artifact
// with no result are all definitive misses — never errors, never retried.
func TestRemoteCorruptionIsMiss(t *testing.T) {
	ctx := context.Background()
	srv := newArtifactServer(t)
	rc := fastRemote(srv.ts.URL)

	cases := map[string][]byte{
		"garbage":      []byte("{not json"),
		"stale-schema": mustJSON(t, grid.Artifact{Schema: grid.SchemaVersion - 1, Result: testResult(1)}),
		"no-result":    mustJSON(t, grid.Artifact{Schema: grid.SchemaVersion}),
	}
	i := 0
	for name, blob := range cases {
		key := testKey(100 + i)
		i++
		srv.stored[key] = blob
		before := srv.gets.Load()
		if _, ok := rc.Load(ctx, key, grid.Job{}); ok {
			t.Errorf("%s: reported a hit", name)
		}
		if got := srv.gets.Load() - before; got != 1 {
			t.Errorf("%s: %d requests, want 1 (definitive answers are not retried)", name, got)
		}
	}
	if st := rc.Stats(); st.Errors != 0 {
		t.Errorf("corruption counted as %d errors, want misses only", st.Errors)
	}
}

// TestRemoteRetriesThenHit counts attempts through transient 5xx weather:
// with Retries=2, two 500s are absorbed and the third attempt's 200 wins.
func TestRemoteRetriesThenHit(t *testing.T) {
	srv := newArtifactServer(t)
	key := testKey(0)
	srv.put(key, grid.Artifact{Schema: grid.SchemaVersion, Result: testResult(4)})
	var n atomic.Int64
	srv.respond = func(w http.ResponseWriter, k string) {
		if n.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write(srv.stored[k])
	}
	rc := NewRemoteCache(srv.ts.URL, RemoteOptions{Retries: 2, Backoff: time.Millisecond})
	res, ok := rc.Load(context.Background(), key, grid.Job{})
	if !ok || res.IPC != 4 {
		t.Fatalf("Load = (%v, %v), want hit after retries", res, ok)
	}
	if n.Load() != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", n.Load())
	}
}

// TestRemoteExhaustedRetriesFailOpen: a peer that only answers 500 is a
// miss after the retry budget, and the error counter records the abandon.
func TestRemoteExhaustedRetriesFailOpen(t *testing.T) {
	srv := newArtifactServer(t)
	srv.respond = func(w http.ResponseWriter, _ string) {
		http.Error(w, "down", http.StatusInternalServerError)
	}
	rc := NewRemoteCache(srv.ts.URL, RemoteOptions{Retries: 1, Backoff: time.Millisecond})
	if _, ok := rc.Load(context.Background(), testKey(0), grid.Job{}); ok {
		t.Fatal("all-500 peer reported a hit")
	}
	if st := rc.Stats(); st.Errors != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 error and 1 miss", st)
	}
	if got := srv.gets.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (Retries=1)", got)
	}
}

// TestRemoteUnreachableFailsOpenToCompute is the acceptance-criteria
// property end to end: an engine whose only cache tier points at a dead
// address still computes every job locally, with no error and no artifact.
func TestRemoteUnreachableFailsOpenToCompute(t *testing.T) {
	restore := grid.SetSimForTesting(func(*core.Partition, sim.Config) (*sim.Result, error) {
		return testResult(1), nil
	})
	t.Cleanup(restore)

	rc := NewRemoteCache("http://127.0.0.1:1", RemoteOptions{
		Retries: 0, Backoff: time.Millisecond, Timeout: 200 * time.Millisecond,
	})
	eng := grid.New(grid.Options{Workers: 2, Cache: NewTiered(rc)})
	job := grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)}
	res, err := eng.RunCtx(context.Background(), job)
	if err != nil || res == nil {
		t.Fatalf("RunCtx = (%v, %v), want local compute", res, err)
	}
	if s := eng.Stats(); s.Sims != 1 || s.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 1 sim, 0 cache hits", s)
	}
}

// TestRemoteCanceledLeaderNotPoisoned: a load abandoned because the
// caller's ctx died must not memoize a failure — the next caller with a
// live ctx gets the remote hit.
func TestRemoteCanceledLeaderNotPoisoned(t *testing.T) {
	srv := newArtifactServer(t)
	key := grid.Key(grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)})
	srv.put(key, grid.Artifact{Schema: grid.SchemaVersion, Result: testResult(7)})

	restore := grid.SetSimForTesting(func(*core.Partition, sim.Config) (*sim.Result, error) {
		t.Error("simulated despite a cached remote artifact")
		return testResult(0), nil
	})
	t.Cleanup(restore)

	eng := grid.New(grid.Options{Workers: 2, Cache: NewTiered(fastRemote(srv.ts.URL))})
	job := grid.Job{Workload: "compress", Config: sim.DefaultConfig(4)}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunCtx(canceled, job); err == nil {
		t.Fatal("canceled run reported success")
	}
	res, err := eng.RunCtx(context.Background(), job)
	if err != nil || res.IPC != 7 {
		t.Fatalf("post-cancel RunCtx = (%v, %v), want remote hit with IPC 7", res, err)
	}
	if s := eng.Stats(); s.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", s.CacheHits)
	}
}

func TestRemotePing(t *testing.T) {
	srv := newArtifactServer(t)
	if err := fastRemote(srv.ts.URL).Ping(context.Background()); err != nil {
		t.Errorf("ping live server: %v", err)
	}
	dead := NewRemoteCache("http://127.0.0.1:1", RemoteOptions{Timeout: 200 * time.Millisecond})
	if err := dead.Ping(context.Background()); err == nil {
		t.Error("ping dead address succeeded")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRemoteFailOpenWarningNamesKey: satellite for the silent-degradation
// bug — when the remote tier abandons a request and fails open, the warning
// must name the key, the op, and how many attempts were burned, or a fleet
// quietly recomputing everything locally looks healthy in the logs.
func TestRemoteFailOpenWarningNamesKey(t *testing.T) {
	var buf bytes.Buffer
	rc := NewRemoteCache("http://127.0.0.1:1", RemoteOptions{
		Retries: 1, Backoff: time.Millisecond, Timeout: 200 * time.Millisecond,
		Logger: log.New(&buf, "", 0),
	})
	key := testKey(0)
	if _, ok := rc.Load(context.Background(), key, grid.Job{}); ok {
		t.Fatal("dead peer reported a hit")
	}
	line := buf.String()
	for _, want := range []string{"level=warn", "msg=remote_cache_failopen", "op=load",
		"key=" + key, "attempts=2", "connection refused"} {
		if !strings.Contains(line, want) {
			t.Errorf("load warning %q missing %q", line, want)
		}
	}

	buf.Reset()
	rc.Store(context.Background(), key, grid.Job{}, testResult(1))
	line = buf.String()
	for _, want := range []string{"op=put", "key=" + key, "attempts=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("put warning %q missing %q", line, want)
		}
	}
}

// TestRemoteAgainstPeerWithoutCache points the remote tier at peers that
// serve no cache: a real serve.New whose engine has none, which answers the
// cache route with 404 no_cache, and an msreport leader, which has no cache
// route at all. Ping must fail, and every Load and Store must count an
// error after one attempt and log one fail-open line, instead of passing
// for a miss and a publication.
func TestRemoteAgainstPeerWithoutCache(t *testing.T) {
	peers := map[string]http.Handler{
		"serve":  serve.New(serve.Config{Engine: grid.New(grid.Options{Workers: 1})}).Handler(),
		"leader": NewLeader(NewScheduler(SchedOptions{}), LeaderOptions{}).Handler(),
	}
	for name, h := range peers {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			var buf bytes.Buffer
			rc := NewRemoteCache(ts.URL, RemoteOptions{Backoff: time.Millisecond, Logger: log.New(&buf, "", 0)})
			ctx := context.Background()

			if err := rc.Ping(ctx); err == nil || !strings.Contains(err.Error(), "404") {
				t.Errorf("Ping = %v, want a 404 error", err)
			}
			key := testKey(0)
			if _, ok := rc.Load(ctx, key, grid.Job{}); ok {
				t.Fatal("Load reported a hit")
			}
			rc.Store(ctx, key, testJob(4), testResult(1))
			if st := rc.Stats(); st != (RemoteStats{Misses: 1, Errors: 2}) {
				t.Errorf("stats = %+v, want 1 miss, 2 errors and no put", st)
			}
			if n := requests.Load(); n != 3 {
				t.Errorf("peer saw %d requests, want 3 (ping, load, put; a refusal is not retried)", n)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) != 2 {
				t.Fatalf("log = %q, want one fail-open line per request", buf.String())
			}
			for i, op := range []string{"op=load", "op=put"} {
				for _, want := range []string{"msg=remote_cache_failopen", op, "key=" + key, "attempts=1", "404"} {
					if !strings.Contains(lines[i], want) {
						t.Errorf("log line %q missing %q", lines[i], want)
					}
				}
			}
			if name == "serve" && !strings.Contains(lines[0], "no_cache") {
				t.Errorf("load line %q does not name serve's no_cache code", lines[0])
			}
		})
	}
}
