package obs

import "sync"

// Capture is one fully-detailed request record in the flight recorder:
// everything needed to reconstruct what a single request did without any
// sampling decision having been made up front. Captures are plain values
// once recorded — the recorder hands out copies, never aliases into the
// ring.
type Capture struct {
	Seq       uint64   `json:"seq"`
	TraceID   string   `json:"traceId,omitempty"`
	Method    string   `json:"method"`
	Route     string   `json:"route"`
	Key       string   `json:"key,omitempty"`
	Status    int      `json:"status"`
	LatencyNs uint64   `json:"latencyNs"`
	Fault     string   `json:"fault,omitempty"`
	Degraded  bool     `json:"degraded,omitempty"`
	Breaker   string   `json:"breaker,omitempty"`
	WAL       string   `json:"wal,omitempty"`
	Anomalies []string `json:"anomalies,omitempty"`
}

// CaptureState is the in-flight builder for a Capture. A Scope starts it
// and carries it in the request context, so any layer (decision fill,
// WAL commit, fault injection) can annotate the record; every mutation
// takes the mutex, so goroutines sharing one request context may. All
// methods are nil-safe: code paths that run without a recorder (direct
// handler calls in tests, the zero-alloc benchmarks) annotate a nil
// state and nothing happens.
type CaptureState struct {
	mu sync.Mutex
	c  Capture
}

// SetKey records the canonical decision key. The bytes are copied: the
// caller's buffer is pooled scratch.
func (cs *CaptureState) SetKey(key []byte) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	if cs.c.Key == "" {
		cs.c.Key = string(key)
	}
	cs.mu.Unlock()
}

// SetWAL records the outcome of the WAL commit for this request
// ("committed", "append-error", ...).
func (cs *CaptureState) SetWAL(outcome string) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.c.WAL = outcome
	cs.mu.Unlock()
}

// SetBreaker records a server-observed breaker or regime note.
func (cs *CaptureState) SetBreaker(state string) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.c.Breaker = state
	cs.mu.Unlock()
}

// AddAnomaly marks the in-flight request anomalous from a layer below
// the middleware (a WAL regime transition, say). Finish appends its own
// anomalies after these, and any anomaly makes the recorder pin the
// capture.
func (cs *CaptureState) AddAnomaly(a string) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.c.Anomalies = append(cs.c.Anomalies, a)
	cs.mu.Unlock()
}

// Finish seals the capture with the response-side facts and returns the
// completed record by value. A nil state returns a zero Capture.
func (cs *CaptureState) Finish(status int, latencyNs uint64, fault string, degraded bool, anomalies []string) Capture {
	if cs == nil {
		return Capture{}
	}
	cs.mu.Lock()
	cs.c.Status = status
	cs.c.LatencyNs = latencyNs
	cs.c.Fault = fault
	cs.c.Degraded = degraded
	cs.c.Anomalies = append(cs.c.Anomalies, anomalies...)
	c := cs.c
	cs.mu.Unlock()
	return c
}

// PinGroup is a set of captures frozen at anomaly time: the anomalous
// capture plus up to pinContext captures that immediately preceded it,
// preserved verbatim so they survive ring wrap.
type PinGroup struct {
	Seq      uint64    `json:"seq"`
	Trigger  string    `json:"trigger"`
	Captures []Capture `json:"captures"`
}

// Defaults for the flight recorder: ring size, how many pin groups are
// retained (FIFO), and how many preceding captures each pin freezes.
const (
	DefaultRecorderCapacity = 256
	defaultMaxPins          = 32
	pinContext              = 4
)

// Recorder is the always-on black-box flight recorder: a fixed ring of
// the most recent request captures, plus pinned anomaly groups that
// survive ring wrap. All methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	ring    []Capture
	start   int // index of the oldest capture
	count   int
	seq     uint64
	pins    []PinGroup
	pinSeq  uint64
	maxPins int
}

// NewRecorder returns a recorder holding the last capacity captures
// (capacity <= 0 selects DefaultRecorderCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{ring: make([]Capture, capacity), maxPins: defaultMaxPins}
}

// Record appends one completed capture, assigning its sequence number.
// A capture with anomalies pins itself plus the captures that
// immediately preceded it.
func (r *Recorder) Record(c Capture) {
	r.mu.Lock()
	r.seq++
	c.Seq = r.seq
	pos := (r.start + r.count) % len(r.ring)
	if r.count == len(r.ring) {
		r.start = (r.start + 1) % len(r.ring)
		pos = (r.start + r.count - 1) % len(r.ring)
	} else {
		r.count++
	}
	r.ring[pos] = c
	if len(c.Anomalies) > 0 {
		trigger := c.Anomalies[0]
		r.pinLocked("request:"+trigger, pinContext+1)
	}
	r.mu.Unlock()
}

// Pin freezes the newest captures into a pin group with the given
// trigger, independent of any request — used for anomalies observed
// outside a request path, like an SLO state transition at scrape time.
func (r *Recorder) Pin(trigger string) {
	r.mu.Lock()
	r.pinLocked(trigger, pinContext+1)
	r.mu.Unlock()
}

// pinLocked freezes up to n of the newest captures. Caller holds r.mu.
func (r *Recorder) pinLocked(trigger string, n int) {
	if n > r.count {
		n = r.count
	}
	g := PinGroup{Trigger: trigger, Captures: make([]Capture, 0, n)}
	for i := r.count - n; i < r.count; i++ {
		g.Captures = append(g.Captures, r.ring[(r.start+i)%len(r.ring)])
	}
	r.pinSeq++
	g.Seq = r.pinSeq
	r.pins = append(r.pins, g)
	if len(r.pins) > r.maxPins {
		r.pins = append(r.pins[:0], r.pins[len(r.pins)-r.maxPins:]...)
	}
}

// Snapshot returns the live ring newest-first plus every retained pin
// group oldest-first. Both slices are copies.
func (r *Recorder) Snapshot() ([]Capture, []PinGroup) {
	r.mu.Lock()
	caps := make([]Capture, r.count)
	for i := 0; i < r.count; i++ {
		caps[i] = r.ring[(r.start+r.count-1-i)%len(r.ring)]
	}
	pins := make([]PinGroup, len(r.pins))
	for i, g := range r.pins {
		pins[i] = PinGroup{Seq: g.Seq, Trigger: g.Trigger, Captures: append([]Capture(nil), g.Captures...)}
	}
	r.mu.Unlock()
	return caps, pins
}
