package obs

import "context"

// ctxKey carries a request's *link through a context.
type ctxKey struct{}

// link is what a context carries for this package: the current span and
// the request's capture state. Deriving a child span copies the capture
// half, so one context lookup finds both.
type link struct {
	span *Span
	cs   *CaptureState
}

// linkFrom returns the link carried by ctx, zero when absent.
func linkFrom(ctx context.Context) link {
	if l, _ := ctx.Value(ctxKey{}).(*link); l != nil {
		return *l
	}
	return link{}
}

// spanFrom extracts the current span from ctx, nil when absent.
func spanFrom(ctx context.Context) *Span { return linkFrom(ctx).span }

// CaptureStateFrom returns the capture state carried by ctx, or nil. The
// nil result is directly usable: every CaptureState method is nil-safe.
func CaptureStateFrom(ctx context.Context) *CaptureState { return linkFrom(ctx).cs }

// Scope is one request's observability state in a single block: the
// root span with its trace state, and the flight-recorder capture. A
// server embeds it in its own per-request state, starts the halves it
// has enabled, and attaches the whole with one WithScope, so Child,
// StartSpan and CaptureStateFrom below find both through one context
// value. A Scope must not be copied once started.
type Scope struct {
	link
	root    rootBlock
	capture CaptureState
}

// rootBlock holds a root span beside the trace state it shares with its
// children, so a Scope carries both without allocating either.
type rootBlock struct {
	span  Span
	state traceState
}

// StartRoot begins the scope's trace and root span on t, returning the
// span; a nil tracer leaves the scope untraced and returns the inert nil
// span. End on the span commits the trace to t's ring.
func (sc *Scope) StartRoot(t *Tracer, traceID, name string) *Span {
	if t == nil {
		return nil
	}
	rb := &sc.root
	rb.state = traceState{id: traceID, next: 2, spans: make([]SpanRecord, 0, 4)}
	rb.span = Span{t: t, state: &rb.state, rec: SpanRecord{ID: 1, Name: name}, start: t.clock()}
	sc.span = &rb.span
	return sc.span
}

// StartCapture begins the scope's flight-recorder capture for one
// request and returns it for the caller to Finish.
func (sc *Scope) StartCapture(method, route, traceID string) *CaptureState {
	sc.capture.c = Capture{Method: method, Route: route, TraceID: traceID}
	sc.cs = &sc.capture
	return sc.cs
}

// WithScope returns a context carrying the scope's root span and capture
// state.
func WithScope(ctx context.Context, sc *Scope) context.Context {
	return context.WithValue(ctx, ctxKey{}, &sc.link)
}
