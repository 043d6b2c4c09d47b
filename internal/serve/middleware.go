package serve

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// timeoutBody is the answer to a request whose deadline passed before
// its response began, byte for byte what http.TimeoutHandler sent.
const timeoutBody = `{"error":"request timed out"}`

// statusWriter records the status code and whether a response has begun,
// so the middleware can log the outcome and recover cleanly from a
// handler panic without double-writing headers. It also enforces the
// request deadline: the response begins at the first WriteHeader or
// Write, and if the request's context has ended by then, that call sends
// the timeout answer instead, and every later write fails.
type statusWriter struct {
	http.ResponseWriter
	ctx   context.Context // the request's deadline-bearing context
	code  int
	wrote bool
	err   error // http.ErrHandlerTimeout once the timeout answer went out
}

// begin starts the response with code, reporting whether the caller's
// write may go through.
func (w *statusWriter) begin(code int) bool {
	if w.err != nil {
		return false
	}
	if w.wrote {
		return true
	}
	w.wrote = true
	w.code = code
	if w.ctx.Err() != nil {
		w.timeout()
		return false
	}
	return true
}

// timeout sends the timeout answer: a 503 with timeoutBody and none of
// the headers the handler set, only the middleware's own request-ID and
// fault headers.
func (w *statusWriter) timeout() {
	h := w.ResponseWriter.Header()
	id, injected, degraded := h["X-Request-Id"], h["X-Fault-Injected"], h["X-Degraded"]
	clear(h)
	h["X-Request-Id"] = id
	if injected != nil {
		h["X-Fault-Injected"] = injected
	}
	if degraded != nil {
		h["X-Degraded"] = degraded
	}
	w.code = http.StatusServiceUnavailable
	w.err = http.ErrHandlerTimeout
	w.ResponseWriter.WriteHeader(http.StatusServiceUnavailable)
	_, _ = io.WriteString(w.ResponseWriter, timeoutBody)
}

func (w *statusWriter) WriteHeader(code int) {
	if w.begin(code) {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.begin(http.StatusOK) {
		return 0, w.err
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the connection's writer to http.ResponseController,
// which readBody uses to bound the body read by the request deadline.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// reqState is one request's middleware state in a single allocation: the
// status writer the handler writes through, and the observability scope
// (root span and flight-recorder capture) its context carries.
type reqState struct {
	sw statusWriter
	obs.Scope
}

// middleware wraps the endpoint mux with, outermost first: request-ID
// assignment, the in-flight semaphore, the per-request deadline,
// tracing, flight recording, metrics, structured logging and a panic
// guard. The semaphore queues excess requests rather than rejecting them
// — a request waits for a slot until its client gives up — so
// MaxInFlight bounds concurrency, not throughput.
//
// Every request runs on its connection's goroutine. Once it holds a
// slot, its context carries Config.RequestTimeout as a deadline, and the
// status writer enforces it where the response begins: a handler whose
// first write comes after the deadline (or after its client hung up)
// sends the 503 timeout answer instead. So a timed-out request is
// answered when its handler returns, not at the deadline, and it keeps
// its slot until its work has really ended; MaxInFlight bounds work, not
// just waiting clients. The body read, the one place a handler waits on
// its client, takes the deadline as its connection read deadline.
//
// An inbound X-Request-Id header is echoed (and used as the trace ID) so
// client-side and server-side traces correlate; otherwise the request is
// assigned the next value of the admission counter. The observability
// endpoints themselves (/metrics, /v1/metrics, /v1/traces, /v1/slo,
// /v1/flightrec) pass through unrecorded, untraced, and uncaptured,
// which is what keeps a scrape from perturbing the telemetry it reads.
func (s *Server) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := s.requests.Add(1)
		ids := r.Header["X-Request-Id"]
		if len(ids) == 0 || ids[0] == "" {
			ids = []string{strconv.FormatUint(seq, 10)}
		}
		id := ids[0]
		w.Header()["X-Request-Id"] = ids[:1:1]

		// /v1/watch is a long-lived event stream and takes a different
		// path through the stack: no request deadline (it would sever the
		// stream), no in-flight semaphore slot (watchers would starve the
		// query endpoints), no per-route latency instruments (a stream's
		// "latency" is its lifetime). It has its own concurrency bound
		// and its own metrics, registered only when a WAL is mounted.
		if r.URL.Path == "/v1/watch" {
			if r.Method != http.MethodGet {
				writeError(w, http.StatusMethodNotAllowed, "watch supports GET only")
				return
			}
			s.handleWatch(w, r)
			return
		}

		route := routeOf(r.URL.Path)
		observed := !selfObserved(route)

		semStart := s.clock()
		select {
		case s.sem <- struct{}{}:
		case <-r.Context().Done():
			writeJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: "server at capacity; client gave up waiting"})
			return
		}
		if observed && s.met != nil {
			s.met.semWait.ObserveDuration(s.clock().Sub(semStart))
			s.met.inFlight.Add(1)
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			if observed && s.met != nil {
				s.met.inFlight.Add(-1)
			}
			<-s.sem
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		rq := &reqState{sw: statusWriter{ResponseWriter: w, ctx: ctx}}
		sw := &rq.sw

		// The flight recorder captures every observed request in full
		// detail; the capture state travels in the context beside the
		// root span so the layers below (decision fill, WAL commit) can
		// annotate it.
		var span *obs.Span
		var cs *obs.CaptureState
		if observed {
			span = rq.StartRoot(s.tracer, id, spanName(r.Method, route))
			span.SetAttr("target", requestTarget(r))
			if s.flightrec != nil {
				cs = rq.StartCapture(r.Method, route, id)
			}
			ctx = obs.WithScope(ctx, &rq.Scope)
		}
		r = r.WithContext(ctx)

		start := s.clock()
		defer func() {
			dur := s.clock().Sub(start)
			if rec := recover(); rec != nil {
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						ErrorResponse{Error: "internal error"})
				}
				if observed && s.met != nil {
					s.met.panics.Inc()
					s.met.requestDone(route, sw.code, int64(dur), id)
				}
				s.recordCapture(cs, sw, route, int64(dur), true)
				span.SetAttr("panic", "true")
				span.End()
				if s.logger != nil {
					s.logger.LogAttrs(r.Context(), slog.LevelError, "panic",
						slog.String("req", id), slog.String("route", route),
						slog.String("method", r.Method), slog.Any("value", rec))
				}
				return
			}
			// A handler that wrote nothing answers 200, or the timeout
			// answer if its deadline has passed.
			if !sw.wrote {
				sw.WriteHeader(http.StatusOK)
			}
			if observed && s.met != nil {
				s.met.requestDone(route, sw.code, int64(dur), id)
			}
			s.recordCapture(cs, sw, route, int64(dur), false)
			cache := sw.Header().Get("X-Cache")
			if span != nil {
				span.SetAttr("status", statusText(sw.code))
				if cache != "" {
					span.SetAttr("cache", cache)
				}
				span.End()
			}
			if s.logger != nil {
				attrs := []slog.Attr{
					slog.String("req", id),
					slog.String("method", r.Method),
					slog.String("route", route),
					slog.String("target", requestTarget(r)),
					slog.Int("status", sw.code),
					slog.Duration("duration", dur),
				}
				if cache != "" {
					attrs = append(attrs, slog.String("cache", cache))
				}
				s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
			}
		}()
		// Fault injection sits inside the full bookkeeping stack, so an
		// injected 503 or delay is metered, traced, and logged exactly
		// like an organic one. An injected delay counts against the
		// request deadline.
		if s.fault != nil && faultInjectable(route) {
			var handled bool
			if r, handled = s.injectFault(sw, r, route, span); handled {
				return
			}
		}
		inner.ServeHTTP(sw, r)
	})
}

// requestTarget is the request-target as the client sent it, without
// re-rendering it from the parsed URL when the server recorded it.
func requestTarget(r *http.Request) string {
	if r.RequestURI != "" {
		return r.RequestURI
	}
	return r.URL.RequestURI()
}

// recordCapture seals one request's flight-recorder capture with the
// response-side facts and the anomaly verdicts: a recovered panic, a
// server-error status, latency over the route's SLO objective, or a
// degraded (cache-bypassed) response. Any anomaly — these or one added
// below the middleware, like a WAL regime transition — makes the
// recorder pin the capture with its surrounding context. A nil capture
// state (self-observed route, or recorder disabled) is a no-op.
func (s *Server) recordCapture(cs *obs.CaptureState, sw *statusWriter, route string, durNs int64, panicked bool) {
	if cs == nil || s.flightrec == nil {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	h := sw.Header()
	injected := h.Get("X-Fault-Injected")
	degraded := h.Get("X-Degraded") != ""
	var anomalies []string
	if panicked {
		anomalies = append(anomalies, "panic")
	}
	if sw.code >= 500 {
		anomalies = append(anomalies, "5xx")
	}
	if ns := s.slowNsFor(route); ns > 0 && uint64(durNs) > ns {
		anomalies = append(anomalies, "slow")
	}
	if degraded {
		anomalies = append(anomalies, "degraded")
	}
	s.flightrec.Record(cs.Finish(sw.code, uint64(durNs), injected, degraded, anomalies))
}

// slowNsFor returns the route's latency objective in nanoseconds, 0 when
// the route has none (or no SLO profile is mounted).
func (s *Server) slowNsFor(route string) uint64 {
	if s.met == nil {
		return 0
	}
	if ri, ok := s.met.routes[route]; ok {
		return ri.slowNs
	}
	return 0
}
