//go:build !race

// The allocation pin lives behind !race: the race detector instruments
// allocations and deliberately drops a fraction of sync.Pool puts, so
// AllocsPerRun can only hold exactly zero on an uninstrumented build.

package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// nullResponseWriter is the thinnest possible ResponseWriter: a premade
// header map and discarded writes, so the measurement sees only the
// handler's own allocations, not the recorder's.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWarmLicenseGetZeroAllocs pins the hot-path contract the codec and
// cache layers exist to provide: a warm GET /v1/license — query parse,
// resolve, canonical key render, LRU hit, header and body writes —
// performs zero heap allocations in the handler.
func TestWarmLicenseGetZeroAllocs(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	w := &nullResponseWriter{h: make(http.Header, 4)}

	// Warm: first call fills the cache (and the scratch pool).
	s.handleLicenseGet(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("warmup status = %d", w.code)
	}
	w.code = 0

	allocs := testing.AllocsPerRun(200, func() {
		s.handleLicenseGet(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("status = %d", w.code)
	}
	if w.h.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q, want hit", w.h.Get("X-Cache"))
	}
	if allocs != 0 {
		t.Errorf("warm GET /v1/license allocates %.1f objects per request, want 0", allocs)
	}
}

// fullStackAllocs is the allocation budget of one warm GET /v1/license
// through the whole stack: the deadline context (four: the context, its
// timer, the timer callback and the cancel func), the middleware's
// request block, the scope's context value, the request copy carrying
// it, the root span's record slice, the cache.lookup child span, the two
// spans' attribute slices, and the capture's copy of the decision key.
const fullStackAllocs = 12

// TestWarmLicenseGetFullStackAllocs pins the per-request allocations of
// the full handler — request ID, semaphore, deadline, tracing, flight
// recording, metrics, mux and handler — on a warm GET that carries its
// own X-Request-Id.
func TestWarmLicenseGetFullStackAllocs(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	req.Header.Set("X-Request-Id", "alloc-pin")
	w := &nullResponseWriter{h: make(http.Header, 8)}
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("warmup status = %d", w.code)
	}

	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if w.h.Get("X-Cache") != "hit" || w.h.Get("X-Request-Id") != "alloc-pin" {
		t.Fatalf("X-Cache = %q, X-Request-Id = %q", w.h.Get("X-Cache"), w.h.Get("X-Request-Id"))
	}
	if allocs > fullStackAllocs {
		t.Errorf("warm GET /v1/license through the full stack allocates %.1f objects per request, want at most %d",
			allocs, fullStackAllocs)
	}
}

// BenchmarkLicenseHotPath measures the handler-level warm GET: the same
// path the allocation pin covers, reported as ns/op and allocs/op.
func BenchmarkLicenseHotPath(b *testing.B) {
	s := newTestServer(b)
	req := httptest.NewRequest("GET", "/v1/license?ctp=21125&dest=india&endUse=modeling", nil)
	w := &nullResponseWriter{h: make(http.Header, 4)}
	s.handleLicenseGet(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleLicenseGet(w, req)
	}
}
