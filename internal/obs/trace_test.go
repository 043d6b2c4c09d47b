package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// scriptClock returns a clock that advances one millisecond per read; it
// is safe for concurrent use (pool workers read it in parallel).
func scriptClock() func() time.Time {
	t0 := time.Unix(800000000, 0)
	var n atomic.Int64
	return func() time.Time {
		return t0.Add(time.Duration(n.Add(1)) * time.Millisecond)
	}
}

// startRoot begins a trace as a server does: a fresh Scope, attached to
// a background context.
func startRoot(tr *Tracer, traceID, name string) (context.Context, *Span) {
	sc := &Scope{}
	root := sc.StartRoot(tr, traceID, name)
	return WithScope(context.Background(), sc), root
}

func TestTraceNestingAndOrder(t *testing.T) {
	tr := NewTracer(4, scriptClock())
	ctx, root := startRoot(tr, "req-1", "GET /v1/license")
	root.SetAttr("path", "/v1/license?ctp=1")
	cctx, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("result", "miss")
	_, grand := StartSpan(cctx, "compute")
	grand.End()
	child.End()
	root.End()

	got := tr.Recent()
	if len(got) != 1 {
		t.Fatalf("Recent() = %d traces, want 1", len(got))
	}
	trace := got[0]
	if trace.TraceID != "req-1" || len(trace.Spans) != 3 {
		t.Fatalf("trace = %+v", trace)
	}
	// Spans ordered by ID = creation order: root, child, grandchild.
	if trace.Spans[0].Name != "GET /v1/license" || trace.Spans[0].ID != 1 || trace.Spans[0].Parent != 0 {
		t.Errorf("root span = %+v", trace.Spans[0])
	}
	if trace.Spans[1].Name != "cache.lookup" || trace.Spans[1].Parent != 1 {
		t.Errorf("child span = %+v", trace.Spans[1])
	}
	if trace.Spans[2].Name != "compute" || trace.Spans[2].Parent != trace.Spans[1].ID {
		t.Errorf("grandchild span = %+v", trace.Spans[2])
	}
	// The scripted clock makes every span's duration positive, and the
	// root encloses the children.
	for _, s := range trace.Spans {
		if s.DurNs <= 0 {
			t.Errorf("span %s duration %d", s.Name, s.DurNs)
		}
	}
	if trace.Spans[0].DurNs <= trace.Spans[1].DurNs {
		t.Error("root does not enclose its child")
	}
	if len(trace.Spans[1].Attrs) != 1 || trace.Spans[1].Attrs[0] != (Attr{Key: "result", Value: "miss"}) {
		t.Errorf("child attrs = %+v", trace.Spans[1].Attrs)
	}
}

func TestTraceRingWraps(t *testing.T) {
	tr := NewTracer(3, scriptClock())
	for i := 0; i < 5; i++ {
		_, root := startRoot(tr, fmt.Sprintf("req-%d", i), "op")
		root.End()
	}
	got := tr.Recent()
	if len(got) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(got))
	}
	for i, want := range []string{"req-4", "req-3", "req-2"} { // newest first
		if got[i].TraceID != want {
			t.Errorf("Recent()[%d] = %s, want %s", i, got[i].TraceID, want)
		}
	}
}

func TestTracerDisabled(t *testing.T) {
	if NewTracer(0, scriptClock()) != nil || NewTracer(4, nil) != nil {
		t.Fatal("invalid tracer configs did not disable tracing")
	}
	var tr *Tracer
	ctx, root := startRoot(tr, "x", "op")
	if root != nil {
		t.Fatal("nil tracer returned a live span")
	}
	_, child := StartSpan(ctx, "child")
	child.SetAttr("k", "v")
	child.End()
	root.SetAttr("k", "v")
	root.End()
	if tr.Recent() != nil {
		t.Error("nil tracer captured traces")
	}
}

func TestSpanDoubleEndAndLateChild(t *testing.T) {
	tr := NewTracer(2, scriptClock())
	ctx, root := startRoot(tr, "a", "op")
	_, child := StartSpan(ctx, "slow")
	root.End()
	root.End()  // idempotent
	child.End() // after the root: dropped, must not corrupt the ring
	if _, late := StartSpan(ctx, "post"); late != nil {
		t.Error("span started under an ended root should be inert")
	}
	got := tr.Recent()
	if len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("trace after late child = %+v", got)
	}
}

// TestScopeCarriesSpanAndCapture: one WithScope carries both halves of a
// request's state, a child span context keeps the capture, and an
// untraced scope (nil tracer) still carries its capture.
func TestScopeCarriesSpanAndCapture(t *testing.T) {
	tr := NewTracer(4, scriptClock())
	sc := &Scope{}
	root := sc.StartRoot(tr, "req-9", "GET /v1/license")
	cs := sc.StartCapture("GET", "/v1/license", "req-9")
	ctx := WithScope(context.Background(), sc)
	cctx, child := StartSpan(ctx, "fill")
	if CaptureStateFrom(cctx) != cs {
		t.Error("a child span's context lost the capture state")
	}
	Child(cctx, "leaf").End()
	child.End()
	root.End()
	if got := tr.Recent(); len(got) != 1 || len(got[0].Spans) != 3 || got[0].TraceID != "req-9" {
		t.Fatalf("Recent() = %+v, want one three-span trace req-9", got)
	}

	untraced := &Scope{}
	if s := untraced.StartRoot(nil, "x", "op"); s != nil {
		t.Fatalf("StartRoot on a nil tracer = %v, want nil", s)
	}
	ucs := untraced.StartCapture("GET", "/v1/apps", "x")
	uctx := WithScope(context.Background(), untraced)
	if CaptureStateFrom(uctx) != ucs || Child(uctx, "leaf") != nil {
		t.Error("an untraced scope must carry its capture and no span")
	}
}
