package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// timeoutAnswer is the exact body a timed-out request receives.
const timeoutAnswer = `{"error":"request timed out"}`

// metricLine scrapes /metrics and reports whether it has the line.
func metricLine(t *testing.T, s *Server, line string) bool {
	t.Helper()
	rec := do(t, s.Handler(), "GET", "/metrics", "")
	for _, l := range strings.Split(rec.Body.String(), "\n") {
		if l == line {
			return true
		}
	}
	return false
}

// pinnedCapture finds the capture with traceID in a pin group whose
// trigger is "request:"+anomaly.
func pinnedCapture(s *Server, traceID, anomaly string) (obs.Capture, bool) {
	_, pins := s.flightrec.Snapshot()
	for _, p := range pins {
		if p.Trigger != "request:"+anomaly {
			continue
		}
		for _, c := range p.Captures {
			if c.TraceID == traceID {
				return c, true
			}
		}
	}
	return obs.Capture{}, false
}

// TestRequestTimeoutContract: a handler that is still working when the
// request deadline passes gets the timeout answer in place of what it
// writes — a 503 with the exact timeout body, the request ID, and none
// of the headers the handler set — counted as a 5xx and pinned by the
// flight recorder. A /v1/watch stream is exempt from the deadline and
// still delivers events after it has passed.
func TestRequestTimeoutContract(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s, err := New(Config{Clock: testClock, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	slow := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		h := w.Header()
		h.Set("X-Cache", "hit")
		h.Set("Content-Length", "2")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{}"))
	}))
	req := httptest.NewRequest("GET", "/v1/license?ctp=500&dest=india", nil)
	req.Header.Set("X-Request-Id", "late-1")
	rec := httptest.NewRecorder()
	slow.ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Body.String(); got != timeoutAnswer {
		t.Errorf("body = %q, want %q", got, timeoutAnswer)
	}
	if got := rec.Header().Get("X-Request-Id"); got != "late-1" {
		t.Errorf("X-Request-Id = %q, want late-1", got)
	}
	for _, k := range []string{"X-Cache", "Content-Length"} {
		if v := rec.Header().Get(k); v != "" {
			t.Errorf("timeout answer carries the handler's %s: %q", k, v)
		}
	}
	if line := `http_requests_total{route="/v1/license",class="5xx"} 1`; !metricLine(t, s, line) {
		t.Errorf("/metrics lacks %s", line)
	}
	c, ok := pinnedCapture(s, "late-1", "5xx")
	if !ok {
		t.Fatal("the timed-out request was not pinned with 5xx")
	}
	if c.Status != http.StatusServiceUnavailable {
		t.Errorf("pinned capture status = %d, want 503", c.Status)
	}

	// The watch exemption: a stream outlives RequestTimeout and still
	// delivers the regime transition committed after the deadline.
	ws, l := newWALServer(t, t.TempDir(), func(c *Config) { c.RequestTimeout = timeout })
	defer func() { _ = l.Close() }()
	ts := httptest.NewServer(ws.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := watchStream(t, ctx, ts.URL, "")
	time.Sleep(3 * timeout)
	for i, th := range []string{"2000", "7000"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/license?ctp=21125&dest=india&endUse=late%d&threshold=%s", ts.URL, i, th))
		if err != nil {
			t.Fatalf("license: %v", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("license: %d", resp.StatusCode)
		}
	}
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("watch stream ended at the request deadline")
		}
		if ev.Kind != wal.EventRegime {
			t.Fatalf("event kind = %q, want regime", ev.Kind)
		}
	case <-ctx.Done():
		t.Fatal("no event arrived on the watch stream after the deadline")
	}
}

// TestTimeoutAnswerKeepsFaultHeaders: the timeout answer drops the
// handler's headers but keeps the middleware's own, and every write
// after it fails with http.ErrHandlerTimeout.
func TestTimeoutAnswerKeepsFaultHeaders(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	rec.Header().Set("X-Request-Id", "r")
	rec.Header().Set("X-Fault-Injected", "latency")
	sw := &statusWriter{ResponseWriter: rec, ctx: ctx}
	sw.Header().Set("X-Cache", "miss")
	sw.Header().Set("Content-Type", "application/json")
	sw.WriteHeader(http.StatusOK)
	if _, err := sw.Write([]byte("{}")); !errors.Is(err, http.ErrHandlerTimeout) {
		t.Errorf("write after the timeout answer: err = %v, want ErrHandlerTimeout", err)
	}
	if rec.Code != http.StatusServiceUnavailable || sw.code != http.StatusServiceUnavailable {
		t.Errorf("status = %d (recorded %d), want 503", rec.Code, sw.code)
	}
	if got := rec.Body.String(); got != timeoutAnswer {
		t.Errorf("body = %q, want %q", got, timeoutAnswer)
	}
	h := rec.Header()
	if h.Get("X-Request-Id") != "r" || h.Get("X-Fault-Injected") != "latency" {
		t.Errorf("middleware headers lost: %v", h)
	}
	if h.Get("X-Cache") != "" || h.Get("Content-Type") != "" {
		t.Errorf("handler headers kept: %v", h)
	}
}

// TestSlowBodyTimesOutAndFreesSlot: a client that declares a body and
// stalls part-way cannot hold a request slot past the deadline. Its
// POST gets the timeout answer, and with MaxInFlight 1 the next request
// is then served.
func TestSlowBodyTimesOutAndFreesSlot(t *testing.T) {
	s, err := New(Config{Clock: testClock, RequestTimeout: 200 * time.Millisecond, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	head := "POST /v1/license HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 200\r\n\r\n"
	if _, err := io.WriteString(conn, head+`{"ctp":215`); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the stalled POST's answer: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != timeoutAnswer {
		t.Fatalf("stalled POST: %d %q, want 503 %q", resp.StatusCode, body, timeoutAnswer)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	next, err := client.Get(ts.URL + "/v1/license?ctp=500&dest=india")
	if err != nil {
		t.Fatalf("request after the stalled POST: %v", err)
	}
	_ = next.Body.Close()
	if next.StatusCode != http.StatusOK {
		t.Fatalf("request after the stalled POST: %d, want 200", next.StatusCode)
	}
}

// TestPanicContained: a panicking handler answers 500 with the internal
// error body, is counted and pinned, and gives its slot back.
func TestPanicContained(t *testing.T) {
	s, err := New(Config{Clock: testClock, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	req := httptest.NewRequest("GET", "/v1/license?ctp=500&dest=india", nil)
	req.Header.Set("X-Request-Id", "boom-1")
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "internal error" {
		t.Errorf("body = %q, want {\"error\":\"internal error\"}", rec.Body.String())
	}
	if !metricLine(t, s, "http_panics_total 1") {
		t.Error("/metrics lacks http_panics_total 1")
	}
	if _, ok := pinnedCapture(s, "boom-1", "panic"); !ok {
		t.Error("the panicking request was not pinned with panic")
	}

	done := make(chan int, 1)
	go func() {
		r := httptest.NewRecorder()
		s.Handler().ServeHTTP(r, httptest.NewRequest("GET", "/v1/healthz", nil))
		done <- r.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("request after the panic: %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the panicking request kept its slot")
	}
}

// TestPanicAfterWriteCountsWhatWasSent: a handler that panics after its
// response began is counted and captured with the status the client
// received, not a 500 it never saw.
func TestPanicAfterWriteCountsWhatWasSent(t *testing.T) {
	s, err := New(Config{Clock: testClock})
	if err != nil {
		t.Fatal(err)
	}
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		panic("after the header")
	}))
	req := httptest.NewRequest("GET", "/v1/license?ctp=500&dest=india", nil)
	req.Header.Set("X-Request-Id", "boom-2")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want the 400 already sent", rec.Code)
	}
	if line := `http_requests_total{route="/v1/license",class="4xx"} 1`; !metricLine(t, s, line) {
		t.Errorf("/metrics lacks %s", line)
	}
	c, ok := pinnedCapture(s, "boom-2", "panic")
	if !ok || c.Status != http.StatusBadRequest {
		t.Errorf("panic capture = %+v (found %v), want status 400", c, ok)
	}
}

// TestBodyDeadlineSparesKeptAliveConnection: the read deadline readBody
// sets must not outlive the body read. A POST whose handler works on
// past the deadline gets the timeout answer, and the next request on
// the same kept-alive connection is then served normally — whether the
// body was full, empty (net/http's read-ahead on the connection is
// already running when the handler starts), or read only after the
// deadline had passed.
func TestBodyDeadlineSparesKeptAliveConnection(t *testing.T) {
	const timeout = 100 * time.Millisecond
	s, err := New(Config{Clock: testClock, RequestTimeout: timeout, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	readErrs := make(chan error, 1)
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			if r.URL.Query().Get("late") != "" {
				<-r.Context().Done()
			}
			sc := getScratch()
			_, err := readBody(sc, w, r)
			putScratch(sc)
			readErrs <- err
			// Work on past the deadline, so a read deadline left set on
			// the connection would have fired by the time this returns.
			<-r.Context().Done()
			time.Sleep(timeout)
		}
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var conn net.Conn
	var br *bufio.Reader
	dial := func() {
		t.Helper()
		if conn != nil {
			_ = conn.Close()
		}
		var err error
		if conn, err = net.Dial("tcp", ts.Listener.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		br = bufio.NewReader(conn)
	}
	dial()
	defer func() { _ = conn.Close() }()
	roundTrip := func(req string) *http.Response {
		t.Helper()
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reading the answer: %v", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp
	}

	body := `{"ctp":500,"dest":"india"}`
	for _, c := range []struct{ target, body string }{
		{"/v1/license", body},
		{"/v1/license", ""},
		{"/v1/license?late=1", body},
	} {
		post := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s", c.target, len(c.body), c.body)
		resp := roundTrip(post)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("slow POST %s of %q: %d, want 503", c.target, c.body, resp.StatusCode)
		}
		if err := <-readErrs; err != nil && c.target == "/v1/license" {
			t.Fatalf("reading the body %q: %v", c.body, err)
		}
		if resp.Close {
			dial()
		}
		if got := roundTrip("GET /v1/license HTTP/1.1\r\nHost: test\r\n\r\n"); got.StatusCode != http.StatusOK {
			t.Fatalf("GET after the slow POST %s of %q (connection kept: %v): %d, want 200",
				c.target, c.body, !resp.Close, got.StatusCode)
		}
	}
}
