package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multiscalar/internal/grid"
)

// BenchmarkSimulateMemoHit serves POST /v1/simulate for a job the engine has
// already memoized, through the server's full handler and in process, as
// perfbench's simulate-warm workload does: decode, check, key, memo hit,
// response encoding and the middleware, with no Logger configured. The
// simulation runs once, before the timer.
func BenchmarkSimulateMemoHit(b *testing.B) {
	h := New(Config{Engine: grid.New(grid.Options{})}).Handler()
	const body = `{"workload":"fpppp","select":{"heuristic":"cf"},"machine":{"pus":4}}`
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
