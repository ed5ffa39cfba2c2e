// Package span is the distributed-tracing layer: lightweight spans with
// parent links that follow one request across processes — serve admission →
// grid single-flight → job queue → remote worker → sim and back.
//
// Design rules, in priority order:
//
//   - Pay for use. A nil *Tracer (and the nil *Span every Start returns under
//     it) makes every call in this package a no-op: no allocation, no
//     time.Now, no atomics. An untraced run is byte-identical to a build
//     without this package.
//   - Bounded memory. Spans per trace, concurrently active traces, and the
//     flight-recorder retention sets are all capped; overflow increments a
//     drop counter instead of growing.
//   - Wall-clock start, monotonic duration. SpanData.Start is UnixNano so
//     spans from different processes land on one timeline; Duration is
//     measured with Go's monotonic clock so it never goes negative.
//
// Cross-process propagation is explicit: HTTP surfaces carry the context in
// the X-Ms-Trace header, the dist wire protocol carries it as JSON fields
// (PullResponse.Trace out, ReportRequest.Spans back).
package span

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// TraceID identifies one end-to-end request: 16 random bytes, hex-encoded.
// Random (not sequential) so independently-started processes never collide.
type TraceID string

// SpanID identifies one span within a trace: 8 random bytes, hex-encoded.
type SpanID string

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var b [16]byte
	mustRead(b[:])
	return TraceID(hex.EncodeToString(b[:]))
}

func newSpanID() SpanID {
	var b [8]byte
	mustRead(b[:])
	return SpanID(hex.EncodeToString(b[:]))
}

func mustRead(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on the platforms we run on; if it does the
		// process has bigger problems than tracing.
		panic(fmt.Sprintf("span: crypto/rand: %v", err))
	}
}

// SpanContext is the portable reference to a span: enough to parent a child
// in another process. The zero value is invalid.
type SpanContext struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"`
}

// Valid reports whether both halves are present.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Header is the HTTP header that carries a SpanContext between processes.
const Header = "X-Ms-Trace"

// FormatHeader renders sc as "<traceid>-<spanid>" for the X-Ms-Trace header.
func FormatHeader(sc SpanContext) string {
	return string(sc.TraceID) + "-" + string(sc.SpanID)
}

// ParseHeader parses an X-Ms-Trace value. It is strict — 32 hex chars, a
// dash, 16 hex chars — so a malformed or hostile header degrades to "start a
// fresh trace" rather than poisoning the recorder with junk IDs.
func ParseHeader(s string) (SpanContext, bool) {
	const tlen, slen = 32, 16
	if len(s) != tlen+1+slen || s[tlen] != '-' {
		return SpanContext{}, false
	}
	if !isHex(s[:tlen]) || !isHex(s[tlen+1:]) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: TraceID(s[:tlen]), SpanID: SpanID(s[tlen+1:])}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Status values for a completed span.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// SpanData is the immutable record of a completed (or instant) span. It is
// what crosses process boundaries and what the flight recorder retains.
type SpanData struct {
	TraceID  TraceID           `json:"trace_id"`
	SpanID   SpanID            `json:"span_id"`
	Parent   SpanID            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Process  string            `json:"process"`
	Start    int64             `json:"start_unix_ns"`
	Duration int64             `json:"duration_ns"`
	Status   string            `json:"status"`
	Error    string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Span is a live, in-progress span. All methods are safe on a nil receiver
// and safe for concurrent use; End is idempotent (first call wins).
type Span struct {
	tr    *Tracer
	start time.Time // monotonic; duration source
	final bool      // ending this span completes its trace in this process

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Context returns the portable reference to this span, for propagation.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// TraceID returns the span's trace ID ("" on a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SetAttr attaches a key/value attribute. No-op on nil or ended spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.lock()
	if !s.ended {
		if s.data.Attrs == nil {
			s.data.Attrs = make(map[string]string, 4)
		}
		s.data.Attrs[key] = value
	}
	s.unlock()
}

// Event records an instant (zero-duration) child span — for point-in-time
// facts like a lease reassignment that have no extent of their own but
// belong on the trace timeline.
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	d := SpanData{
		TraceID: s.data.TraceID,
		SpanID:  newSpanID(),
		Parent:  s.data.SpanID,
		Name:    name,
		Process: s.tr.Process(),
		Start:   time.Now().UnixNano(),
		Status:  StatusOK,
		Attrs:   attrMap(kv),
	}
	s.tr.append(d, false)
}

// End completes the span. err != nil marks it (and hence its trace) errored.
// Safe to call more than once; only the first call records anything.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.lock()
	if s.ended {
		s.unlock()
		return
	}
	s.ended = true
	s.data.Duration = int64(time.Since(s.start))
	if err != nil {
		s.data.Status = StatusError
		s.data.Error = err.Error()
	} else {
		s.data.Status = StatusOK
	}
	d := s.data
	s.unlock()
	s.tr.finish(d, s.final)
}

func (s *Span) lock()   { s.mu.Lock() }
func (s *Span) unlock() { s.mu.Unlock() }

func attrMap(kv []string) map[string]string {
	if len(kv) < 2 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

type ctxKey struct{}

// ContextWith returns ctx carrying s as the current span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil if ctx is untraced.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of the span carried by ctx. On an untraced ctx it
// returns (ctx, nil) without allocating or reading the clock — this call is
// sprinkled through hot paths, so the disabled cost must be a context lookup
// and nothing else.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tr.newSpan(parent.data.TraceID, parent.data.SpanID, name, false)
	return ContextWith(ctx, child), child
}
