package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/serve"
)

// errNoBackends is returned when no member can accept a request at all.
var errNoBackends = errors.New("no routable backend")

// errBodyTooLarge reports a backend answer longer than maxBodyBytes. The
// gateway buffers whole answers, so the alternative would be forwarding
// a cut body under the backend's status; it fails the request instead,
// and never retries, since any replica would answer the same bytes.
var errBodyTooLarge = errors.New("backend response body exceeds 1 MiB")

// proxyResult is one backend answer, fully buffered: status, the
// backend's headers, the body bytes, and which backend produced it.
type proxyResult struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// headerJSON is the Content-Type of forwarded request bodies.
var headerJSON = []string{"application/json"}

// forwardHeaders are the backend headers a proxied response keeps. The
// gateway adds X-Gw-Backend so tests and operators can see routing.
var forwardHeaders = []string{"Content-Type", "X-Cache", "X-Degraded", "X-Fault-Injected", "X-Request-Id"}

func writeProxyResult(w http.ResponseWriter, res *proxyResult) {
	h := w.Header()
	for _, k := range forwardHeaders {
		if v := res.header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Gw-Backend", res.backend)
	h.Set("Content-Length", strconv.Itoa(len(res.body)))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// retryableStatus mirrors the client's retry policy: statuses that mean
// "try again", not "your request is wrong".
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forwardOnce performs one exchange with one backend, buffering the
// answer and charging the backend's instruments. An answer longer than
// maxBodyBytes is an error, never a truncated result.
func (g *Gateway) forwardOnce(ctx context.Context, b *backend, method, uri string, body []byte, inbound http.Header) (*proxyResult, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+uri, rd)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header["Content-Type"] = headerJSON
	}
	if id := inbound.Get("X-Request-Id"); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	b.requests.Inc()
	begin := g.clock()
	resp, err := g.client.Do(req)
	if err != nil {
		b.errors.Inc()
		return nil, err
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	_ = resp.Body.Close()
	b.latency.ObserveDuration(g.clock().Sub(begin))
	if rerr == nil && len(data) > maxBodyBytes {
		rerr = errBodyTooLarge
	}
	if rerr != nil {
		b.errors.Inc()
		return nil, rerr
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		b.errors.Inc()
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: data, backend: b.url}, nil
}

// ownerFor resolves a key's backend: the first healthy ring owner not in
// excluded. With no healthy candidate it falls back to the drained
// primary owner (fail static: a request to a sick backend beats no
// answer, and keeps key ownership stable for when the member recovers).
func (g *Gateway) ownerFor(key string, excluded map[string]bool) *backend {
	g.mu.RLock()
	defer g.mu.RUnlock()
	alive := func(m string) bool {
		if excluded[m] {
			return false
		}
		b := g.backends[m]
		return b != nil && b.healthy()
	}
	owner, ok := g.ring.owner(key, alive)
	if !ok {
		owner, ok = g.ring.owner(key, func(m string) bool { return !excluded[m] })
		if !ok {
			return nil
		}
		g.noHealthy.Inc()
	}
	return g.backends[owner]
}

// forwardKeyed forwards one request to its key's owner with bounded
// retries. The two failure classes take different paths deliberately:
// a transport error means the backend is gone, so the key fails over to
// the next ring owner immediately; a retryable HTTP status means the
// backend is alive but refusing (injected fault, overload), so the SAME
// owner is retried after a pause — moving the key would hand a second
// backend a cold fill the first already owns. Every attempt runs on the
// caller's context under one ForwardTimeout deadline, so a client that
// hangs up cancels the backend exchange instead of leaving it to finish
// for nobody.
func (g *Gateway) forwardKeyed(ctx context.Context, key, method, uri string, body []byte, inbound http.Header) (*proxyResult, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ForwardTimeout)
	defer cancel()
	var excluded map[string]bool
	var last *proxyResult
	var lastErr error
	for attempt := 0; attempt < g.cfg.Attempts; attempt++ {
		b := g.ownerFor(key, excluded)
		if b == nil {
			if lastErr == nil && last == nil {
				lastErr = errNoBackends
			}
			break
		}
		res, err := g.forwardOnce(ctx, b, method, uri, body, inbound)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil || errors.Is(err, errBodyTooLarge) {
				break
			}
			g.retries.Inc()
			if excluded == nil {
				excluded = make(map[string]bool)
			}
			excluded[b.url] = true
			continue
		}
		last, lastErr = res, nil
		if !retryableStatus(res.status) {
			return res, nil
		}
		if attempt < g.cfg.Attempts-1 {
			g.retries.Inc()
			g.sleep(g.cfg.RetryBackoff)
		}
	}
	// Retries exhausted: a real backend answer (even a retryable status)
	// beats a synthetic one — the caller's own retry policy sees the
	// backend's canonical error body.
	if last != nil {
		return last, nil
	}
	return nil, lastErr
}

// ---- handlers ------------------------------------------------------------

// serveKeyed answers one canonical-keyed license request from the key's
// owner.
func (g *Gateway) serveKeyed(w http.ResponseWriter, r *http.Request, key, method, uri string, body []byte) {
	obs.CaptureStateFrom(r.Context()).SetKey([]byte(key))
	res, err := g.forwardKeyed(r.Context(), key, method, uri, body, r.Header)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "gateway: %v", err)
		return
	}
	writeProxyResult(w, res)
}

func (g *Gateway) handleLicenseGet(w http.ResponseWriter, r *http.Request) {
	req, ok := serve.DecodeLicenseQuery(r.URL.RawQuery)
	if !ok {
		// The backend owns the canonical error text; forward unrouted.
		g.proxyByURI(w, r, nil)
		return
	}
	key, ok := serve.ResolveDecisionKey(nil, &req)
	if !ok {
		g.proxyByURI(w, r, nil)
		return
	}
	g.serveKeyed(w, r, string(key), http.MethodGet, r.URL.RequestURI(), nil)
}

func (g *Gateway) handleLicensePost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		serve.WriteError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
		return
	}
	single, batch, isBatch, ok := serve.DecodeLicenseBody(body)
	if !ok {
		g.proxyByURI(w, r, body)
		return
	}
	if isBatch {
		if len(batch) > g.cfg.MaxBatch {
			// Forward whole: the owning backend renders its canonical
			// over-limit rejection.
			g.proxyByURI(w, r, body)
			return
		}
		g.scatterGather(w, r, batch, body)
		return
	}
	key, ok := serve.ResolveDecisionKey(nil, &single)
	if !ok {
		g.proxyByURI(w, r, body)
		return
	}
	g.serveKeyed(w, r, string(key), http.MethodPost, "/v1/license", body)
}

// proxyByURI routes a request by the hash of its URI — no canonical key,
// but still deterministic, so repeated catalog/threshold reads warm one
// backend's memo instead of all of them.
func (g *Gateway) proxyByURI(w http.ResponseWriter, r *http.Request, body []byte) {
	uri := r.URL.RequestURI()
	res, err := g.forwardKeyed(r.Context(), uri, r.Method, uri, body, r.Header)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "gateway: %v", err)
		return
	}
	writeProxyResult(w, res)
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			serve.WriteError(w, http.StatusRequestEntityTooLarge, "request body too large or unreadable")
			return
		}
		body = b
	}
	g.proxyByURI(w, r, body)
}

func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	serve.WriteError(w, http.StatusNotImplemented,
		"the gateway does not merge event streams; connect to a backend's /v1/watch directly")
}

func (g *Gateway) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := g.reg.WriteProm(&buf); err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "metrics rendering failed: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (g *Gateway) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, g.reg.Snapshot())
}

func (g *Gateway) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if g.flightrec == nil {
		serve.WriteError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	caps, pins := g.flightrec.Snapshot()
	serve.WriteJSON(w, http.StatusOK, serve.FlightRecResponse{Count: len(caps), Captures: caps, Pins: pins})
}
