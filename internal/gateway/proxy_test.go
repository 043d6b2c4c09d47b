package gateway

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestForwardRejectsOversizeBody pins the no-truncation contract on both
// forwarding paths (keyed license reads and the URI-hash proxy): a
// backend answer of exactly maxBodyBytes passes through whole, and one
// byte more is a counted backend error and a 502 — never a cut body
// under the backend's 200, and never retried.
func TestForwardRejectsOversizeBody(t *testing.T) {
	for _, path := range []string{"/v1/license?ctp=2000&dest=japan", "/v1/traces"} {
		for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
			var hits atomic.Int64
			payload := bytes.Repeat([]byte{'a'}, size)
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(payload)
			}))
			g, err := New(Config{Backends: []string{backend.URL}, Clock: gwTestClock, NoHedge: true})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			g.Close()
			backend.Close()

			errs := g.backends[backend.URL].errors.Value()
			if size <= maxBodyBytes {
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), payload) {
					t.Errorf("%s, %d-byte answer: status %d, %d bytes; want 200 and the whole body",
						path, size, rec.Code, rec.Body.Len())
				}
				if errs != 0 {
					t.Errorf("%s, %d-byte answer: %d backend errors counted, want 0", path, size, errs)
				}
				continue
			}
			if rec.Code != http.StatusBadGateway {
				t.Errorf("%s, %d-byte answer: status %d, want 502", path, size, rec.Code)
			}
			if bytes.Contains(rec.Body.Bytes(), []byte("aaaa")) {
				t.Errorf("%s, %d-byte answer: 502 body carries backend bytes", path, size)
			}
			if !bytes.Contains(rec.Body.Bytes(), []byte(errBodyTooLarge.Error())) {
				t.Errorf("%s: error body %q does not name the limit", path, rec.Body.String())
			}
			if errs != 1 {
				t.Errorf("%s, %d-byte answer: %d backend errors counted, want 1", path, size, errs)
			}
			if n := hits.Load(); n != 1 {
				t.Errorf("%s, %d-byte answer: backend asked %d times, want 1 (no retry)", path, size, n)
			}
		}
	}
}
