package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
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
			g, err := New(Config{Backends: []string{backend.URL}, Clock: gwTestClock})
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

// stallingBackend starts a backend that never answers: each request
// blocks until its context ends, or until the test's cleanup releases
// it. The returned channels report that a request arrived, and that a
// request's context ended; a report nobody has read yet absorbs later
// ones, so a handler never blocks on them.
func stallingBackend(t *testing.T) (url string, arrived, cancelled <-chan struct{}) {
	t.Helper()
	arr := make(chan struct{}, 1)
	canc := make(chan struct{}, 1)
	signal := func(c chan struct{}) {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		signal(arr)
		select {
		case <-r.Context().Done():
			signal(canc)
		case <-release:
		}
	}))
	t.Cleanup(backend.Close)
	t.Cleanup(func() { close(release) })
	return backend.URL, arr, canc
}

// serveAsync runs one request through h on its own goroutine.
func serveAsync(h http.Handler, req *http.Request) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		out <- rec
	}()
	return out
}

// TestForwardCancelAndDeadline pins that every forward runs on the
// caller's context under ForwardTimeout. A client that hangs up on a
// keyed read cancels the backend exchange (its request context ends),
// and a backend that never answers fails a by-URI read and a two-shard
// batch with a 502 once ForwardTimeout passes. The 502 bodies are the
// backends' error shape, rendered byte for byte as encoding/json
// renders serve.ErrorResponse. Each timed-out 502 pins in the flight
// recorder; the hang-up's 502, which reached nobody, does not.
func TestForwardCancelAndDeadline(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		url, arrived, cancelled := stallingBackend(t)
		g, err := New(Config{Backends: []string{url}, Clock: gwTestClock, ForwardTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		const query = "ctp=2000&dest=japan"
		if req, ok := serve.DecodeLicenseQuery(query); !ok {
			t.Fatal("query does not parse")
		} else if _, ok := serve.ResolveDecisionKey(nil, &req); !ok {
			t.Fatal("query has no decision key; it would not take the keyed path")
		}

		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		done := serveAsync(g.Handler(),
			httptest.NewRequest(http.MethodGet, "/v1/license?"+query, nil).WithContext(ctx))
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("the keyed read never reached the backend")
		}
		cancel()
		select {
		case <-cancelled:
		case <-time.After(5 * time.Second):
			t.Fatal("backend request context still live 5 s after the client cancelled")
		}
		<-done
		if _, pins := g.flightrec.Snapshot(); len(pins) != 0 {
			t.Errorf("a client hang-up pinned %d flight-recorder groups, want 0", len(pins))
		}
		g.Close()
	})

	t.Run("deadline", func(t *testing.T) {
		url1, _, _ := stallingBackend(t)
		url2, _, _ := stallingBackend(t)
		g, err := New(Config{Backends: []string{url1, url2}, Clock: gwTestClock,
			ForwardTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}

		reqs := make([]serve.LicenseRequest, 8)
		owners := map[string]bool{}
		for i := range reqs {
			reqs[i] = licenseRequest(i)
			owners[ownerOf(t, g, decisionKeyOf(t, reqs[i]))] = true
		}
		if len(owners) != 2 {
			t.Fatalf("batch spans %d owners, want 2", len(owners))
		}
		batch, err := json.Marshal(serve.BatchRequest{Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}

		for _, tc := range []struct {
			name string
			req  *http.Request
		}{
			{"by URI", httptest.NewRequest(http.MethodGet, "/v1/catalog?origin=us&x=1", nil)},
			{"two-shard batch", httptest.NewRequest(http.MethodPost, "/v1/license", strings.NewReader(string(batch)))},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			var rec *httptest.ResponseRecorder
			select {
			case rec = <-serveAsync(g.Handler(), tc.req.WithContext(ctx)):
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: no answer 10 s into a 200 ms ForwardTimeout", tc.name)
			}
			if rec.Code != http.StatusBadGateway {
				t.Fatalf("%s: status %d, want 502: %s", tc.name, rec.Code, rec.Body)
			}
			var er serve.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("%s: 502 body %q is not an error response: %v", tc.name, rec.Body, err)
			}
			want, err := json.Marshal(er)
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: 502 body\n got: %q\nwant: %q", tc.name, rec.Body, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
			}
		}
		if _, pins := g.flightrec.Snapshot(); len(pins) != 2 {
			t.Errorf("%d flight-recorder pin groups, want one per 502", len(pins))
		}
		g.Close()
	})
}
