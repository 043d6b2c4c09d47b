package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as it appears in a Trace. IDs are
// per-trace counters assigned in creation order (the root is always 1),
// not random — the tracer inherits the repository's determinism contract,
// so identical request sequences against a scripted clock produce
// identical traces.
type SpanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // 0 for the root span
	Name    string `json:"name"`
	StartNs int64  `json:"startUnixNano"`
	DurNs   int64  `json:"durationNanos"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace is one completed request: the root span and every child span
// started under it, ordered by span ID (creation order).
type Trace struct {
	TraceID string       `json:"traceId"`
	Spans   []SpanRecord `json:"spans"`
}

// traceState is the shared mutable state of one in-progress trace.
type traceState struct {
	mu    sync.Mutex
	id    string
	next  uint64
	spans []SpanRecord // completed spans, appended at End
}

// Span is one in-progress operation. A nil *Span is valid and inert, so
// callers annotate and End unconditionally. A Span's SetAttr and End are
// meant for the goroutine that started it; sibling spans of one trace may
// run concurrently.
//
// The first few attributes live in a fixed inline array and are copied
// into the record only at End, so annotating a span on the request hot
// path allocates once (the exact-size slice), not per attribute.
type Span struct {
	t      *Tracer
	state  *traceState
	rec    SpanRecord
	start  time.Time
	ended  bool
	nattrs int
	attrs  [4]Attr
}

// Tracer captures traces into a fixed-capacity ring buffer of the most
// recent completed traces. A nil *Tracer is valid and disables tracing
// entirely: Scope.StartRoot and StartSpan return nil spans and no clock
// is ever read.
type Tracer struct {
	clock func() time.Time

	mu   sync.Mutex
	ring []Trace
	pos  int // next slot to overwrite
	n    int // traces stored, ≤ len(ring)
}

// NewTracer returns a tracer keeping the last capacity completed traces,
// timed by the injected clock. A capacity below one or a nil clock
// returns nil — the disabled tracer.
func NewTracer(capacity int, clock func() time.Time) *Tracer {
	if capacity < 1 || clock == nil {
		return nil
	}
	return &Tracer{clock: clock, ring: make([]Trace, capacity)}
}

// startChild begins a child of parent, or returns the inert nil span
// when there is no live parent.
func startChild(parent *Span, name string) *Span {
	if parent == nil || parent.ended {
		return nil
	}
	st := parent.state
	st.mu.Lock()
	id := st.next
	st.next++
	st.mu.Unlock()
	return &Span{
		t:     parent.t,
		state: st,
		rec:   SpanRecord{ID: id, Parent: parent.rec.ID, Name: name},
		start: parent.t.clock(),
	}
}

// StartSpan begins a child of the span carried by ctx, returning a
// context carrying the child. Without a span in ctx (tracing disabled, or
// an untraced entry point) it returns ctx and a nil — inert — span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	l := linkFrom(ctx)
	s := startChild(l.span, name)
	if s == nil {
		return ctx, nil
	}
	l.span = s
	return context.WithValue(ctx, ctxKey{}, &l), s
}

// Child begins a child of the span carried by ctx without deriving a new
// context — the cheaper call for leaf operations that start no spans of
// their own.
func Child(ctx context.Context, name string) *Span {
	return startChild(spanFrom(ctx), name)
}

// SetAttr annotates the span. Calling it on a nil or ended span is a
// no-op.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended {
		return
	}
	if s.nattrs < len(s.attrs) {
		s.attrs[s.nattrs] = Attr{Key: key, Value: value}
		s.nattrs++
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// End completes the span. Ending the root span assembles the trace —
// every span that has Ended, ordered by ID — and commits it to the
// tracer's ring; children that End after their root are dropped. End on a
// nil span is a no-op; a second End does nothing.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.t.clock()
	s.rec.StartNs = s.start.UnixNano()
	s.rec.DurNs = int64(end.Sub(s.start))
	if s.nattrs > 0 {
		attrs := make([]Attr, 0, s.nattrs+len(s.rec.Attrs))
		attrs = append(attrs, s.attrs[:s.nattrs]...)
		attrs = append(attrs, s.rec.Attrs...)
		s.rec.Attrs = attrs
	}

	st := s.state
	st.mu.Lock()
	st.spans = append(st.spans, s.rec)
	root := s.rec.Parent == 0
	var done []SpanRecord
	if root {
		done = st.spans
		st.spans = nil
	}
	st.mu.Unlock()
	if !root {
		return
	}
	// Spans End in near-ID order; an insertion sort costs nothing here
	// where sort.Slice would allocate on every commit.
	for i := 1; i < len(done); i++ {
		for j := i; j > 0 && done[j-1].ID > done[j].ID; j-- {
			done[j], done[j-1] = done[j-1], done[j]
		}
	}
	s.t.commit(Trace{TraceID: st.id, Spans: done})
}

// commit stores one completed trace, overwriting the oldest when full.
func (t *Tracer) commit(tr Trace) {
	t.mu.Lock()
	t.ring[t.pos] = tr
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Recent returns the completed traces, newest first. A nil tracer returns
// nil.
func (t *Tracer) Recent() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.pos - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}
