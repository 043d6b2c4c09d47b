package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clientTimeout bounds one request, so a wedged daemon fails requests
// instead of stalling the run.
const clientTimeout = 5 * time.Second

// failedLatency stands in for the latency of a failed request: the client
// timeout, which no successful request reaches, so a failure misses every
// latency limit and sorts above every success.
const failedLatency = int64(clientTimeout)

// loadResult is one closed-loop phase.
type loadResult struct {
	lat       []int64 // per request, ns; failedLatency for failures
	win       []int32 // per request, the whole second of the phase it ended in
	attempted int64
	failed    int64
	decisions int64         // correct decisions; batch items count one each
	wall      time.Duration // phase start to the last worker's exit
	cpu       float64       // CPU seconds of the processes under test
	genCPU    float64       // CPU seconds of the generator itself
	perProc   []float64     // CPU seconds by process under test, in pids order
	windows   []float64     // decisions per CPU-second of each whole second
	firstErr  string
	exhausted bool       // the cold stream ran out and ended the phase early
	spans     []*spanLog // one per connection when traced
}

func (r *loadResult) decisionsPerCPU() float64 { return median(r.windows) }

// windowPctMS returns, in ms, the median over the phase's whole-second
// windows of each window's exact q-quantile latency. A burst of
// interference from outside the processes under test moves a few windows
// and leaves the median of windows where the rest of the run put it.
func (r *loadResult) windowPctMS(q float64) float64 {
	var byWin [][]int64
	for i, v := range r.lat {
		if w := int(r.win[i]); w >= 0 {
			for len(byWin) <= w {
				byWin = append(byWin, nil)
			}
			byWin[w] = append(byWin[w], v)
		}
	}
	var per []float64
	for _, s := range byWin {
		if len(s) == 0 {
			continue
		}
		sortInt64(s)
		per = append(per, float64(percentile(s, q))/1e6)
	}
	if len(per) == 0 {
		return r.pctMS(q)
	}
	return median(per)
}

// pctMS returns the exact q-quantile latency in ms.
func (r *loadResult) pctMS(q float64) float64 {
	s := append([]int64(nil), r.lat...)
	sortInt64(s)
	return float64(percentile(s, q)) / 1e6
}

func cpuOf(pids []int) (total float64, per []float64, err error) {
	per = make([]float64, len(pids))
	for i, pid := range pids {
		if per[i], err = procCPU(pid); err != nil {
			return 0, nil, err
		}
		total += per[i]
	}
	return total, per, nil
}

// loader drives one closed loop: conns workers, each on its own
// keep-alive connection, each sending its next request only after the
// previous answer has been read and checked.
type loader struct {
	t      *traffic
	base   string // http://host:port
	conns  int
	next   *atomic.Uint64 // stream index shared by all workers and phases
	limit  uint64         // when non-zero, the stream index a phase stops at
	client *http.Client
	pids   []int // processes under test
}

func newLoader(t *traffic, addr string, conns int, next *atomic.Uint64, pids []int) *loader {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &loader{t: t, base: "http://" + addr, conns: conns, next: next, pids: pids,
		client: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// run drives the loop for d. With traced, every request records its
// spans; epoch is the spans' time origin.
func (l *loader) run(d time.Duration, traced bool, epoch time.Time) (*loadResult, error) {
	res := &loadResult{}
	var stop atomic.Bool
	var decided atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup

	cpu0, per0, err := cpuOf(l.pids)
	if err != nil {
		return nil, err
	}
	gen0, err := procCPU(selfPID)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for c := 0; c < l.conns; c++ {
		var sl *spanLog
		if traced {
			sl = newSpanLog(epoch, 1<<16)
			res.spans = append(res.spans, sl)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := l.work(&stop, &decided, sl, start, int32(d/time.Second))
			mu.Lock()
			res.lat = append(res.lat, w.lat...)
			res.win = append(res.win, w.win...)
			res.attempted += w.attempted
			res.failed += w.failed
			if res.firstErr == "" {
				res.firstErr = w.firstErr
			}
			res.exhausted = res.exhausted || w.exhausted
			mu.Unlock()
		}()
	}

	// Sample decisions and CPU once a second; each whole second is one
	// window of the decisions-per-CPU-second median.
	prevD, prevCPU := int64(0), cpu0
	tick := time.NewTicker(time.Second)
	deadline := time.NewTimer(d)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
loop:
	for {
		select {
		case <-done:
			break loop
		case <-tick.C:
			dec := decided.Load()
			cpu, _, err := cpuOf(l.pids)
			if err != nil {
				stop.Store(true)
				break loop
			}
			if cpu > prevCPU {
				res.windows = append(res.windows, float64(dec-prevD)/(cpu-prevCPU))
			}
			prevD, prevCPU = dec, cpu
		case <-deadline.C:
			break loop
		}
	}
	tick.Stop()
	stop.Store(true)
	<-done
	res.wall = time.Since(start)
	res.decisions = decided.Load()
	cpu1, per, err := cpuOf(l.pids)
	if err != nil {
		return nil, fmt.Errorf("process under test gone: %w", err)
	}
	gen1, err := procCPU(selfPID)
	if err != nil {
		return nil, err
	}
	res.cpu, res.genCPU = cpu1-cpu0, gen1-gen0
	for i := range per {
		res.perProc = append(res.perProc, per[i]-per0[i])
	}
	if len(res.windows) == 0 && res.cpu > 0 {
		res.windows = []float64{float64(res.decisions) / res.cpu}
	}
	return res, nil
}

type workerResult struct {
	lat               []int64
	win               []int32
	attempted, failed int64
	firstErr          string
	exhausted         bool
	start             time.Time
	windows           int32
}

// work is one connection's loop. Each request's latency is filed under
// the whole second since start it ended in; one ending after the last
// whole window, of windows in all, is filed under -1.
func (l *loader) work(stop *atomic.Bool, decided *atomic.Int64, sl *spanLog, start time.Time, windows int32) workerResult {
	w := workerResult{windows: windows, start: start}
	var body []byte
	var rb bytes.Buffer
	t := l.t
	per := int64(t.w.decisionsPer())
	for !stop.Load() {
		i := l.next.Add(1) - 1
		s, ok := t.slot(i)
		if !ok || (l.limit > 0 && i >= l.limit) {
			// The stream was sized from the warm-up rate; a run that
			// outpaces it ends its phase early rather than repeat a key.
			w.exhausted = true
			stop.Store(true)
			break
		}
		var root, sp int32
		if sl != nil {
			root = sl.begin(spRequest, i, -1)
			sp = sl.begin(spEncode, i, root)
		}
		method, target, b := t.encode(body[:0], uint64(s))
		body = b
		if sl != nil {
			sl.end(sp)
			sp = sl.begin(spRound, i, root)
		}
		t0 := time.Now()
		status, err := l.roundTrip(method, target, body, &rb)
		lat := time.Since(t0)
		if sl != nil {
			sl.end(sp)
			sp = sl.begin(spDecode, i, root)
		}
		got := rb.Bytes()
		decoded := err == nil && t.decodeOK(got)
		if sl != nil {
			sl.end(sp)
		}
		want := t.want.get(s)
		w.attempted++
		switch {
		case err != nil:
			w.fail(fmt.Sprintf("request %d: %v", i, err))
		case status != http.StatusOK:
			w.fail(fmt.Sprintf("request %d: status %d: %.200s", i, status, got))
		case !decoded:
			w.fail(fmt.Sprintf("request %d: response does not decode: %.200s", i, got))
		case !bytes.Equal(got, want):
			w.fail(fmt.Sprintf("request %d: body differs from the reference\n got: %.300s\nwant: %.300s", i, got, want))
		default:
			w.record(int64(lat))
			decided.Add(per)
		}
		if sl != nil {
			sl.end(root)
		}
	}
	return w
}

func (w *workerResult) record(lat int64) {
	win := int32(time.Since(w.start) / time.Second)
	if win >= w.windows {
		win = -1
	}
	w.lat = append(w.lat, lat)
	w.win = append(w.win, win)
}

func (w *workerResult) fail(msg string) {
	w.failed++
	w.record(failedLatency)
	if w.firstErr == "" {
		w.firstErr = msg
	}
}

// roundTrip sends one request and reads the whole answer into rb.
func (l *loader) roundTrip(method, target string, body []byte, rb *bytes.Buffer) (int, error) {
	rb.Reset()
	req, err := http.NewRequest(method, l.base+target, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = rb.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// once sends one request of the stream's slot s outside any phase and
// checks it, for warm-up walks, top-ups and set-up probes.
func (l *loader) once(s uint64) error {
	var rb bytes.Buffer
	method, target, body := l.t.encode(nil, s)
	status, err := l.roundTrip(method, target, body, &rb)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !bytes.Equal(rb.Bytes(), l.t.want.get(int(s))) {
		return fmt.Errorf("slot %d: status %d, body %.200s", s, status, rb.Bytes())
	}
	return nil
}
