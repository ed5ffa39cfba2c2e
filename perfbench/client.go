package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multiscalar/internal/grid"
	"multiscalar/internal/obs"
	"multiscalar/internal/serve"
)

// recorder is a reusable in-process http.ResponseWriter: the benchmark calls
// serve.Server.Handler().ServeHTTP directly, with no sockets in the way.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// reply is what one closed-loop request observed.
type reply struct {
	start, end time.Time
	status     int
	bytes      int
}

// closedLoop posts every body to /v1/simulate from `clients` goroutines.
// Each client sends its next request only when the previous reply is in,
// as /v1/simulate callers do. onReply sees each reply's body on the
// client's goroutine, after the request's end time is taken; the body is
// valid only during the call. It returns the replies by request index and
// the wall time of the whole loop.
func closedLoop(h http.Handler, clients int, bodies [][]byte, onReply func(i, status int, body []byte)) ([]reply, time.Duration) {
	out := make([]reply, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{hdr: make(http.Header)}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				clear(rec.hdr)
				rec.code = 0
				rec.body.Reset()
				start := time.Now()
				req, err := http.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(bodies[i]))
				if err != nil {
					panic(err) // a constant method and path cannot fail to parse
				}
				h.ServeHTTP(rec, req)
				out[i] = reply{start: start, end: time.Now(), status: rec.code, bytes: rec.body.Len()}
				if onReply != nil {
					onReply(i, rec.code, rec.body.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// newServer builds a fresh engine and server. A non-nil registry collects
// the engine's queue-wait and execution histograms for the traced phase.
func newServer(workers int, reg *obs.Registry) (*grid.Engine, *serve.Server) {
	eng := grid.New(grid.Options{Workers: workers, Metrics: reg})
	return eng, serve.New(serve.Config{Engine: eng, Metrics: reg})
}

func simulateBody(req serve.SimulateRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("encoding a simulate request: %v", err)) // plain structs always encode
	}
	return b
}

// addReplies adds the client-side view of a round to a traced phase.
func (ph *phase) addReplies(rs []reply) {
	for _, r := range rs {
		ph.requests++
		ph.respBytes += int64(r.bytes)
		if r.status != http.StatusOK {
			ph.notOK++
		}
		if r.status == http.StatusTooManyRequests {
			ph.shed++
		}
	}
}
