package obs

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestRecorderRingWrapPreservesPins(t *testing.T) {
	r := NewRecorder(8)
	// Fill a few ordinary captures, then one anomaly, then wrap the ring
	// several times over. The pinned group must still hold the anomaly
	// and its preceding context verbatim.
	for i := 0; i < 5; i++ {
		r.Record(Capture{Route: "/v1/license", Status: 200, TraceID: fmt.Sprintf("ok-%d", i)})
	}
	r.Record(Capture{Route: "/v1/license", Status: 503, TraceID: "boom", Anomalies: []string{"5xx"}})
	for i := 0; i < 40; i++ {
		r.Record(Capture{Route: "/v1/license", Status: 200, TraceID: fmt.Sprintf("late-%d", i)})
	}

	caps, pins := r.Snapshot()
	if len(caps) != 8 {
		t.Fatalf("ring holds %d captures, want 8", len(caps))
	}
	for _, c := range caps {
		if c.TraceID == "boom" {
			t.Fatalf("anomaly capture still in the live ring after 40 wraps — wrap is broken")
		}
	}
	if len(pins) != 1 {
		t.Fatalf("got %d pin groups, want 1", len(pins))
	}
	g := pins[0]
	if g.Trigger != "request:5xx" {
		t.Errorf("pin trigger = %q, want request:5xx", g.Trigger)
	}
	if len(g.Captures) != pinContext+1 {
		t.Fatalf("pin group holds %d captures, want %d", len(g.Captures), pinContext+1)
	}
	last := g.Captures[len(g.Captures)-1]
	if last.TraceID != "boom" || last.Status != 503 {
		t.Errorf("pinned anomaly = %+v, want the 503 boom capture last", last)
	}
	for _, c := range g.Captures[:len(g.Captures)-1] {
		if c.Status != 200 {
			t.Errorf("pinned context capture %+v is not one of the preceding OK requests", c)
		}
	}
}

func TestRecorderSnapshotNewestFirst(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Record(Capture{Status: i})
	}
	caps, _ := r.Snapshot()
	if len(caps) != 4 {
		t.Fatalf("got %d captures, want 4", len(caps))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if caps[i].Seq != want {
			t.Errorf("caps[%d].Seq = %d, want %d", i, caps[i].Seq, want)
		}
	}
}

func TestRecorderPinBoundAndSyntheticPin(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < defaultMaxPins+10; i++ {
		r.Record(Capture{Status: 500, Anomalies: []string{"5xx"}})
	}
	r.Pin("slo:/v1/license:availability:ok->page")
	_, pins := r.Snapshot()
	if len(pins) != defaultMaxPins {
		t.Fatalf("got %d pin groups, want the FIFO bound %d", len(pins), defaultMaxPins)
	}
	last := pins[len(pins)-1]
	if last.Trigger != "slo:/v1/license:availability:ok->page" {
		t.Errorf("newest pin trigger = %q, want the synthetic SLO pin", last.Trigger)
	}
	// Seq strictly increases across the retained window.
	for i := 1; i < len(pins); i++ {
		if pins[i].Seq <= pins[i-1].Seq {
			t.Fatalf("pin seq not increasing: %d then %d", pins[i-1].Seq, pins[i].Seq)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	// Hammer the recorder from many goroutines, anomalies included, and
	// read snapshots concurrently; meaningful under -race.
	r := NewRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := Capture{Route: "/v1/license", Status: 200}
				if i%17 == 0 {
					c.Status = 503
					c.Anomalies = []string{"5xx"}
				}
				r.Record(c)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				caps, pins := r.Snapshot()
				_ = caps
				_ = pins
				r.Pin("probe")
			}
		}()
	}
	wg.Wait()
	caps, pins := r.Snapshot()
	if len(caps) != 16 {
		t.Fatalf("ring holds %d captures, want 16", len(caps))
	}
	if len(pins) != defaultMaxPins {
		t.Fatalf("got %d pins, want the bound %d", len(pins), defaultMaxPins)
	}
	// Seq numbers in the live ring are unique and descending.
	for i := 1; i < len(caps); i++ {
		if caps[i].Seq >= caps[i-1].Seq {
			t.Fatalf("snapshot not newest-first: seq %d then %d", caps[i-1].Seq, caps[i].Seq)
		}
	}
}

func TestCaptureStateNilSafe(t *testing.T) {
	var cs *CaptureState
	cs.SetKey([]byte("k"))
	cs.SetWAL("committed")
	cs.SetBreaker("open")
	if c := cs.Finish(200, 1, "", false, nil); !reflect.DeepEqual(c, Capture{}) {
		t.Errorf("nil Finish = %+v, want zero Capture", c)
	}
	if got := CaptureStateFrom(context.Background()); got != nil {
		t.Errorf("CaptureStateFrom(empty ctx) = %v, want nil", got)
	}
}

func TestCaptureStateAnnotatesAndCopiesKey(t *testing.T) {
	sc := &Scope{}
	cs := sc.StartCapture("GET", "/v1/license", "t-1")
	ctx := WithScope(context.Background(), sc)
	got := CaptureStateFrom(ctx)
	if got != cs {
		t.Fatalf("ctx round-trip lost the capture state")
	}
	key := []byte("alpha")
	got.SetKey(key)
	key[0] = 'X'                 // the capture must have copied, not aliased
	got.SetKey([]byte("second")) // first key wins
	got.SetWAL("committed")
	c := got.Finish(200, 1234, "error", true, []string{"degraded"})
	want := Capture{
		TraceID: "t-1", Method: "GET", Route: "/v1/license", Key: "alpha",
		Status: 200, LatencyNs: 1234, Fault: "error", Degraded: true,
		WAL: "committed", Anomalies: []string{"degraded"},
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("Finish = %+v, want %+v", c, want)
	}
}
