package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
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
	// Retries is how many times a transport failure or a 5xx answer is
	// retried (negative = 0; default 2). Definitive answers — a hit, a
	// not_cached miss, a corrupt artifact, a 4xx refusal — are never
	// retried.
	Retries int
	// Backoff is the first retry delay, doubling per attempt (0 = 50ms).
	Backoff time.Duration
	// Metrics is the registry the tier counts into: the dist_remote_*
	// counters, which Stats reads, and the RTT histogram. Nil gives the
	// tier a private registry.
	Metrics *obs.Registry
	// Logger receives one warning per failed request — abandoned or
	// refused, the fail-open path — naming the key, attempt count, and last
	// error, so silent degradation to local compute is diagnosable (nil =
	// discard).
	Logger *log.Logger
}

// RemoteStats snapshots a remote tier's counters.
type RemoteStats struct {
	// Hits and Misses count Load probes by outcome (a corrupt or
	// stale-schema artifact counts as a miss).
	Hits, Misses int64
	// Errors counts probes and puts that failed: abandoned after
	// exhausting retries, or refused with a 4xx other than a not_cached
	// miss (a peer that serves no cache answers every request that way).
	Errors int64
	// Puts counts successful publications.
	Puts int64
}

// RemoteCache is the network tier: a grid.Cache over GET/PUT /v1/cache/{key}
// against an mssrv peer (serve is the one server of that protocol). It is
// strictly fail-open — every failure mode (timeout, refused connection, 5xx,
// 4xx refusal, corrupt body, stale schema) degrades to a cache miss and the
// caller computes locally — and bounded: each attempt carries its own
// deadline and transport failures retry at most Retries times with doubling
// backoff. Only a 404 with the not_cached code is a plain miss; a failure
// counts as an error and logs one remote_cache_failopen line.
type RemoteCache struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	log     *log.Logger

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
	r := opts.Metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	return &RemoteCache{
		base:    trimSlash(base),
		hc:      opts.Client,
		timeout: opts.Timeout,
		retries: opts.Retries,
		backoff: opts.Backoff,
		log:     opts.Logger,
		hits:    r.Counter("dist_remote_hits_total", "probes", "remote cache probes that hit"),
		misses:  r.Counter("dist_remote_misses_total", "probes", "remote cache probes that missed"),
		errs:    r.Counter("dist_remote_errors_total", "requests", "remote cache requests abandoned after retries"),
		puts:    r.Counter("dist_remote_puts_total", "artifacts", "results published to the remote cache"),
		rtt: r.Histogram("dist_remote_rtt_us", "us",
			"round-trip time of one remote cache request", obs.ExpBuckets(10, 4, 12)),
	}
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
		Hits: c.hits.Value(), Misses: c.misses.Value(),
		Errors: c.errs.Value(), Puts: c.puts.Value(),
	}
}

// pingKey is a well-formed key that Ping probes.
var pingKey = strings.Repeat("0", 64)

// Ping implements Tier: the peer must answer a probe of its cache route
// with a hit or a not_cached miss. A peer that serves no cache (an mssrv
// without -cache-dir, an msreport leader) fails; a draining mssrv still
// serves its cache and passes.
func (c *RemoteCache) Ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(pingKey), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("remote cache %s: %w", c.base, err)
	}
	defer discard(resp)
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return missOrRefusal(resp)
}

// Load implements grid.Cache: GET the artifact, validate its schema, fail
// open to a miss on any error.
func (c *RemoteCache) Load(ctx context.Context, key string, _ grid.Job) (*sim.Result, bool) {
	var res *sim.Result
	attempts, err := c.retry(ctx, func(actx context.Context) (again bool, err error) {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.keyURL(key), nil)
		if err != nil {
			return false, err // malformed request: no retry will fix it
		}
		resp, err := c.do(req)
		if err != nil {
			return true, err
		}
		defer discard(resp)
		switch {
		case resp.StatusCode == http.StatusOK:
			var a grid.Artifact
			// A corrupt or stale artifact is definitive: the peer has
			// nothing we can use, so it is a miss, not a retryable error.
			if err := json.NewDecoder(resp.Body).Decode(&a); err == nil &&
				a.Schema == grid.SchemaVersion && a.Result != nil {
				res = a.Result
			}
			return false, nil
		case resp.StatusCode >= 500:
			return true, fmt.Errorf("remote cache: %s", resp.Status) // transient: retry
		default:
			return false, missOrRefusal(resp)
		}
	})
	c.failOpen("load", key, attempts, err)
	if res == nil {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
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
	attempts, err := c.retry(context.WithoutCancel(ctx), func(actx context.Context) (again bool, err error) {
		req, err := http.NewRequestWithContext(actx, http.MethodPut, c.keyURL(key), bytes.NewReader(blob))
		if err != nil {
			return false, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.do(req)
		if err != nil {
			return true, err
		}
		defer discard(resp)
		switch {
		case resp.StatusCode < 300:
			c.puts.Inc()
			return false, nil
		case resp.StatusCode >= 500:
			return true, fmt.Errorf("remote cache: %s", resp.Status)
		default:
			_, err := refusal(resp)
			return false, err
		}
	})
	c.failOpen("put", key, attempts, err)
}

// failOpen counts and logs a request that ended in err (nil = it did not).
func (c *RemoteCache) failOpen(op, key string, attempts int, err error) {
	if err == nil {
		return
	}
	c.errs.Inc()
	c.log.Printf("level=warn msg=remote_cache_failopen op=%s key=%s attempts=%d err=%v",
		op, key, attempts, err)
}

// missOrRefusal reads a non-200 answer to a GET: nil for the one plain
// miss, a 404 whose error code is not_cached (serve's answer for an absent
// key), or else the refusal.
func missOrRefusal(resp *http.Response) error {
	code, err := refusal(resp)
	if resp.StatusCode == http.StatusNotFound && code == "not_cached" {
		return nil
	}
	return err
}

// refusal reads the error code of an answer that is neither a hit nor a
// stored artifact (serve's {"error":{"code"}} body; "" for any other body)
// and describes the answer as an error.
func refusal(resp *http.Response) (code string, err error) {
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	// A body of any other shape, or none, leaves the code empty.
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&body)
	if code = body.Error.Code; code == "" {
		return "", fmt.Errorf("remote cache: %s", resp.Status)
	}
	return code, fmt.Errorf("remote cache: %s (%s)", resp.Status, code)
}

// discard drains and closes a response body so the connection is reused.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (c *RemoteCache) keyURL(key string) string {
	return c.base + "/v1/cache/" + key
}

// do issues one attempt, observing its RTT.
func (c *RemoteCache) do(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	c.rtt.Observe(time.Since(t0).Microseconds())
	return resp, err
}

// retry runs attempt with a per-attempt deadline until it gives a
// definitive answer (again=false), retries are exhausted, or ctx ends. It
// returns the attempts made and the error that ended the sequence (nil =
// a definitive answer that is not a failure).
func (c *RemoteCache) retry(ctx context.Context, attempt func(context.Context) (again bool, err error)) (int, error) {
	delay := c.backoff
	for try := 1; ; try++ {
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		again, err := attempt(actx)
		cancel()
		if !again || try > c.retries || ctx.Err() != nil {
			return try, err
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return try, err
		}
		delay *= 2
	}
}
