package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/sim"
)

// RemoteOptions configures a RemoteCache; the zero value gives sane
// defaults for a LAN peer.
type RemoteOptions struct {
	// Client issues the requests (nil = a private client; per-attempt
	// deadlines come from Timeout either way).
	Client *http.Client
	// Timeout bounds each attempt (0 = 5s).
	Timeout time.Duration
	// Retries is how many times a transport-level failure is retried
	// (negative = 0; default 2). Definitive answers — a hit, a 404 miss, a
	// corrupt artifact — are never retried.
	Retries int
	// Backoff is the first retry delay, doubling per attempt (0 = 50ms).
	Backoff time.Duration
	// Metrics, when non-nil, receives dist_remote_* counters and the RTT
	// histogram.
	Metrics *obs.Registry
	// Logger receives one warning per abandoned request — the fail-open
	// path — naming the key, attempt count, and last error, so silent
	// degradation to local compute is diagnosable (nil = discard).
	Logger *log.Logger
}

// RemoteStats snapshots a remote tier's counters.
type RemoteStats struct {
	// Hits and Misses count Load probes by outcome (a corrupt or
	// stale-schema artifact counts as a miss).
	Hits, Misses int64
	// Errors counts probes and puts abandoned after exhausting retries.
	Errors int64
	// Puts counts successful publications.
	Puts int64
}

// RemoteCache is the network tier: a grid.Cache over GET/PUT /v1/cache/{key}
// against an mssrv peer (serve is the one server of that protocol). It is
// strictly fail-open — every failure mode (timeout, refused connection, 5xx,
// corrupt body, stale schema) degrades to a cache miss and the caller
// computes locally — and bounded: each attempt carries its own deadline and
// transport failures retry at most Retries times with doubling backoff.
type RemoteCache struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	log     *log.Logger

	hits, misses, errs, puts atomic.Int64
	m                        *remoteMetrics
}

type remoteMetrics struct {
	hits, misses, errs, puts *obs.Counter
	rtt                      *obs.Histogram
}

// NewRemoteCache returns a remote tier for the peer at base (scheme://host:port,
// no trailing slash needed); keys live under base/v1/cache/.
func NewRemoteCache(base string, opts RemoteOptions) *RemoteCache {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	c := &RemoteCache{
		base:    trimSlash(base),
		hc:      opts.Client,
		timeout: opts.Timeout,
		retries: opts.Retries,
		backoff: opts.Backoff,
		log:     opts.Logger,
	}
	if r := opts.Metrics; r != nil {
		c.m = &remoteMetrics{
			hits:   r.Counter("dist_remote_hits_total", "probes", "remote cache probes that hit"),
			misses: r.Counter("dist_remote_misses_total", "probes", "remote cache probes that missed"),
			errs:   r.Counter("dist_remote_errors_total", "requests", "remote cache requests abandoned after retries"),
			puts:   r.Counter("dist_remote_puts_total", "artifacts", "results published to the remote cache"),
			rtt: r.Histogram("dist_remote_rtt_us", "us",
				"round-trip time of one remote cache request", obs.ExpBuckets(10, 4, 12)),
		}
	}
	return c
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Name implements Tier.
func (c *RemoteCache) Name() string { return "remote" }

// Stats snapshots the tier's counters.
func (c *RemoteCache) Stats() RemoteStats {
	return RemoteStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Errors: c.errs.Load(), Puts: c.puts.Load(),
	}
}

// Ping implements Tier: the peer is reachable if GET /healthz returns any
// HTTP response at all (a draining peer answers 503 but can still serve its
// cache).
func (c *RemoteCache) Ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("remote cache %s: %w", c.base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// Load implements grid.Cache: GET the artifact, validate its schema, fail
// open to a miss on any error.
func (c *RemoteCache) Load(ctx context.Context, key string, _ grid.Job) (*sim.Result, bool) {
	var res *sim.Result
	var lastErr error
	ok := c.retry(ctx, func(actx context.Context) (done bool) {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.keyURL(key), nil)
		if err != nil {
			return true // malformed request: no retry will fix it
		}
		resp, err := c.do(req)
		if err != nil {
			lastErr = err
			return false
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		switch {
		case resp.StatusCode == http.StatusOK:
			var a grid.Artifact
			// A corrupt or stale artifact is definitive: the peer has
			// nothing we can use, so it is a miss, not a retryable error.
			if err := json.NewDecoder(resp.Body).Decode(&a); err == nil &&
				a.Schema == grid.SchemaVersion && a.Result != nil {
				res = a.Result
			}
			return true
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("remote cache: %s", resp.Status)
			return false // transient server trouble: retry
		default:
			return true // 404 and friends: definitive miss
		}
	})
	if !ok {
		c.errs.Add(1)
		if c.m != nil {
			c.m.errs.Inc()
		}
		c.log.Printf("level=warn msg=remote_cache_failopen op=load key=%s attempts=%d err=%v",
			key, c.retries+1, lastErr)
	}
	if res == nil {
		c.misses.Add(1)
		if c.m != nil {
			c.m.misses.Inc()
		}
		return nil, false
	}
	c.hits.Add(1)
	if c.m != nil {
		c.m.hits.Inc()
	}
	return res, true
}

// Store implements grid.Cache: best-effort PUT of the full artifact. The
// publication rides a context detached from the caller's cancellation (but
// still deadline-bounded per attempt): a result computed just before the
// caller canceled is still worth sharing with the peer.
func (c *RemoteCache) Store(ctx context.Context, key string, job grid.Job, res *sim.Result) {
	blob, err := json.Marshal(grid.Artifact{
		Schema:   grid.SchemaVersion,
		Workload: job.Workload,
		Select:   job.Select,
		Config:   job.Config,
		Result:   res,
	})
	if err != nil {
		return
	}
	var lastErr error
	ok := c.retry(context.WithoutCancel(ctx), func(actx context.Context) (done bool) {
		req, err := http.NewRequestWithContext(actx, http.MethodPut, c.keyURL(key), bytes.NewReader(blob))
		if err != nil {
			return true
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.do(req)
		if err != nil {
			lastErr = err
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("remote cache: %s", resp.Status)
			return false
		}
		if resp.StatusCode < 300 {
			c.puts.Add(1)
			if c.m != nil {
				c.m.puts.Inc()
			}
		}
		return true
	})
	if !ok {
		c.errs.Add(1)
		if c.m != nil {
			c.m.errs.Inc()
		}
		c.log.Printf("level=warn msg=remote_cache_failopen op=put key=%s attempts=%d err=%v",
			key, c.retries+1, lastErr)
	}
}

func (c *RemoteCache) keyURL(key string) string {
	return c.base + "/v1/cache/" + key
}

// do issues one attempt, observing RTT when metrics are attached.
func (c *RemoteCache) do(req *http.Request) (*http.Response, error) {
	if c.m == nil {
		return c.hc.Do(req)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	c.m.rtt.Observe(time.Since(t0).Microseconds())
	return resp, err
}

// retry runs attempt with a per-attempt deadline until it reports done,
// retries are exhausted, or ctx ends. It reports whether the sequence
// reached a definitive answer (false = abandoned on transport errors).
func (c *RemoteCache) retry(ctx context.Context, attempt func(context.Context) bool) bool {
	delay := c.backoff
	for try := 0; ; try++ {
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		done := attempt(actx)
		cancel()
		if done {
			return true
		}
		if try >= c.retries || ctx.Err() != nil {
			return false
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false
		}
		delay *= 2
	}
}
