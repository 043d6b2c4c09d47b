package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// herd sends n concurrent copies of one request through h, released
// together, and returns the recorders in request order.
func herd(h http.Handler, n int, target string) []*httptest.ResponseRecorder {
	recs := make([]*httptest.ResponseRecorder, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			recs[i] = rec
		}(i)
	}
	close(start)
	wg.Wait()
	return recs
}

// TestConcurrentColdFillsAreByteIdentical drives N concurrent requests
// for the same cold decision key through the full handler stack. Each
// request fills or hits on its own; every body must be byte-identical to
// every other (hit ≡ cold under a herd), and every response must carry
// its own X-Request-Id.
func TestConcurrentColdFillsAreByteIdentical(t *testing.T) {
	const n = 8
	s := newTestServer(t)
	h := s.Handler()
	target := "/v1/license?ctp=21125&dest=india&endUse=herd"
	recs := herd(h, n, target)

	misses := 0
	seen := make(map[string]int, n)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		switch rec.Header().Get("X-Cache") {
		case "hit":
		case "miss":
			misses++
		default:
			t.Errorf("request %d: X-Cache = %q", i, rec.Header().Get("X-Cache"))
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("request %d body differs from request 0", i)
		}
		id := rec.Header().Get("X-Request-Id")
		if j, dup := seen[id]; dup {
			t.Errorf("requests %d and %d share X-Request-Id %q", j, i, id)
		}
		seen[id] = i
	}
	if misses == 0 {
		t.Error("no request of the herd filled the cold key")
	}

	// The decision is now cached: a fresh request is a plain cache hit
	// with the same bytes.
	rec := do(t, h, "GET", target, "")
	if rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("post-herd request: X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
	if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
		t.Error("post-herd body differs from the herd's bodies")
	}
	if got := s.decisions.Len(); got != 1 {
		t.Errorf("decision cache holds %d entries after one key's herd, want 1", got)
	}
}

// TestConcurrentFillErrorsNotCached sends a herd whose fill fails
// (safeguards evaluation rejects a non-positive CTP) and verifies every
// request receives the same error status and body, and that the failure
// is never cached.
func TestConcurrentFillErrorsNotCached(t *testing.T) {
	const n = 4
	s := newTestServer(t)
	// A negative CTP resolves cleanly (it is a present rating) but fails
	// inside the fill.
	recs := herd(s.Handler(), n, "/v1/license?ctp=-5&dest=india&endUse=err")

	for i, rec := range recs {
		if rec.Code != recs[0].Code {
			t.Errorf("request %d: status %d, want %d (same as request 0)", i, rec.Code, recs[0].Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("request %d error body differs", i)
		}
	}
	if recs[0].Code == http.StatusOK {
		// The chosen request shape must actually fail; if the regime
		// answers it, the test is vacuous.
		t.Fatalf("expected an error response, got 200: %s", recs[0].Body.String())
	}
	if got := s.decisions.Len(); got != 0 {
		t.Errorf("decision cache holds %d entries after failed fills, want 0", got)
	}
}
