package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/parpool"
	"repro/internal/regime"
	"repro/internal/report"
	"repro/internal/safeguards"
	"repro/internal/serve"
	"repro/internal/units"
	"repro/internal/wal"
)

// layerRequests is how many of the workload's requests the in-process
// layer pass times.
const layerRequests = 2048

// resolved is the benchmark's own resolution of a request into the
// inputs safeguards.Evaluate takes, mirroring what the daemon resolves.
func resolved(req *serve.LicenseRequest) (safeguards.License, units.Mtops, error) {
	ctp := float64(req.CTP)
	if req.System != "" {
		var err error
		if ctp, err = systemCTP(req.System); err != nil {
			return safeguards.License{}, 0, err
		}
	}
	th := units.Mtops(req.Threshold)
	if th == 0 {
		date := req.Date
		if date == 0 {
			date = report.StudyDate
		}
		var ok bool
		if th, ok = regime.ThresholdInForce(date); !ok {
			return safeguards.License{}, 0, fmt.Errorf("no threshold in force at %v", date)
		}
	}
	return safeguards.License{
		Destination: strings.ToLower(strings.TrimSpace(req.Destination)),
		CTP:         units.Mtops(ctp),
		EndUse:      strings.TrimSpace(req.EndUse),
	}, th, nil
}

// poolStats accumulates an observed parpool's supersteps.
type poolStats struct {
	mu      sync.Mutex
	runs    int
	elapsed time.Duration
	maxBusy time.Duration
	barrier time.Duration
}

func (p *poolStats) ObserveRun(s parpool.RunStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
	p.elapsed += s.Elapsed
	p.maxBusy += s.MaxBusy
	p.barrier += s.BarrierOverhead()
}

// layerPass times the workload's requests through each layer's public
// functions in this process, at the daemon's GOMAXPROCS, recording one
// span per call into sl. leftLog is the decision log the daemon left,
// empty when the workload runs without one. It returns the per-layer
// metrics the spans and counters give.
func layerPass(t *traffic, sl *spanLog, dir string, gomaxprocs int, leftLog string) (map[string]float64, error) {
	prev := runtime.GOMAXPROCS(gomaxprocs)
	defer runtime.GOMAXPROCS(prev)
	m := map[string]float64{}
	fsync, err := wal.ParseFsyncPolicy(walFsync(dir))
	if err != nil {
		return nil, err
	}

	var log *wal.Log
	if t.w.wal {
		if log, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "handler-wal"), Fsync: fsync}); err != nil {
			return nil, err
		}
		defer func() { _ = log.Close() }()
	}
	srv, err := serve.New(serve.Config{Clock: time.Now, WAL: log})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if t.w.hot {
		for s := range t.pop {
			method, target, body := t.encode(nil, uint64(s))
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, target, bytes.NewReader(body)))
		}
	}
	appendLog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "append-wal"), Fsync: fsync})
	if err != nil {
		return nil, err
	}
	defer func() { _ = appendLog.Close() }() // Close after Close is harmless
	lru := serve.NewLRU[string, []byte](serve.DefaultCacheSize)
	if t.w.hot {
		var key []byte
		for i := range t.pop {
			key, _ = serve.ResolveDecisionKey(key[:0], &t.pop[i])
			lru.Put(string(key), t.want.get(i))
		}
	}

	var key, body []byte
	var licenses []safeguards.License
	for i := uint64(0); i < layerRequests; i++ {
		s, ok := t.slot(i)
		if !ok {
			return nil, fmt.Errorf("layer pass: cold stream exhausted at %d", i)
		}
		want := t.want.get(s)
		reqs := t.request(uint64(s))
		var method, target string
		method, target, body = t.encode(body[:0], uint64(s))
		hreq := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		sp := sl.begin(spHandler, i, -1)
		h.ServeHTTP(rec, hreq)
		sl.end(sp)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			return nil, fmt.Errorf("layer pass: in-process handler answered request %d with %d: %.200s",
				i, rec.Code, rec.Body.Bytes())
		}

		sp = sl.begin(spParse, i, -1)
		parsedOK := true
		if method == http.MethodGet {
			_, parsedOK = serve.DecodeLicenseQuery(strings.TrimPrefix(target, "/v1/license?"))
		} else {
			_, _, _, parsedOK = serve.DecodeLicenseBody(body)
		}
		for j := range reqs {
			var ok bool
			key, ok = serve.ResolveDecisionKey(key[:0], &reqs[j])
			parsedOK = parsedOK && ok
		}
		sl.end(sp)
		if !parsedOK {
			return nil, fmt.Errorf("layer pass: request %d does not parse", i)
		}

		for j := range reqs {
			key, _ = serve.ResolveDecisionKey(key[:0], &reqs[j])
			k := string(key)
			sp = sl.begin(spCacheGet, i, -1)
			_, _ = lru.Get(k)
			sl.end(sp)
			sp = sl.begin(spCachePut, i, -1)
			lru.Put(k, want)
			sl.end(sp)

			lic, th, err := resolved(&reqs[j])
			if err != nil {
				return nil, err
			}
			sp = sl.begin(spEvaluate, i, -1)
			_, err = safeguards.Evaluate(lic, th)
			sl.end(sp)
			if err != nil {
				return nil, err
			}
			licenses = append(licenses, lic)

			hash := fnv.New64a()
			_, _ = hash.Write(key)
			sp = sl.begin(spAppend, i, -1)
			err = appendLog.Append(wal.Record{Kind: wal.KindDecision, Key: k, Regime: float64(th), Hash: hash.Sum64()})
			sl.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}

	// parpool: an observed pool evaluating the pass's licenses in
	// 64-item batches, the shape of the daemon's parallel batch path.
	pool := parpool.New(gomaxprocs)
	defer pool.Close()
	ps := &poolStats{}
	pool.Observe(ps, time.Now)
	th, _ := regime.ThresholdInForce(report.StudyDate)
	for b := 0; b+64 <= len(licenses); b += 64 {
		sp := sl.begin(spPool, uint64(b/64), -1)
		_, errs := safeguards.EvaluateOn(pool, licenses[b:b+64], th)
		sl.end(sp)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if ps.elapsed > 0 {
		m["parpool.busy_frac"] = float64(ps.maxBusy) / float64(ps.elapsed)
		m["parpool.barrier_us"] = float64(ps.barrier) / float64(ps.runs) / 1e3
	}

	if err := gatewayPass(t, sl, m); err != nil {
		return nil, err
	}

	// wal.replay: warm-start recovery of a copy of the log the daemon
	// left, or, for a workload without one, of the log appended above.
	if leftLog == "" {
		if err := appendLog.Close(); err != nil {
			return nil, err
		}
		leftLog = filepath.Join(dir, "append-wal")
	}
	cp := filepath.Join(dir, "replay-copy")
	if err := copyDir(leftLog, cp); err != nil {
		return nil, err
	}
	sp := sl.begin(spReplay, 0, -1)
	rl, err := wal.Open(wal.Options{Dir: cp})
	sl.end(sp)
	if err != nil {
		return nil, err
	}
	m["wal.replay_records"] = float64(len(rl.Recovery().Records))
	if err := rl.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// gatewayPass times the workload's requests through an in-process
// hpcexportgw handler over three loopback hpcexportd handlers, one span
// per gateway ServeHTTP, and records the gateway's mean backend exchange
// from its own registry. The span's excess over serve.handler's on the
// same requests is the gateway hop. Every workload gets the same
// measurement, so the hop's cost is known before a workload routes
// through it.
func gatewayPass(t *traffic, sl *spanLog, m map[string]float64) error {
	var urls []string
	for i := 0; i < 3; i++ {
		b, err := serve.New(serve.Config{Clock: time.Now})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(b.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	g, err := gateway.New(gateway.Config{Backends: urls, Clock: time.Now})
	if err != nil {
		return err
	}
	defer g.Close()
	h := g.Handler()
	if t.w.hot {
		for s := range t.pop {
			method, target, body := t.encode(nil, uint64(s))
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, target, bytes.NewReader(body)))
		}
	}
	var body []byte
	for i := uint64(0); i < layerRequests; i++ {
		s, _ := t.slot(i)
		var method, target string
		method, target, body = t.encode(body[:0], uint64(s))
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		sp := sl.begin(spGateway, i, -1)
		h.ServeHTTP(rec, req)
		sl.end(sp)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), t.want.get(s)) {
			return fmt.Errorf("layer pass: in-process gateway answered request %d with %d: %.200s",
				i, rec.Code, rec.Body.Bytes())
		}
	}
	var prom bytes.Buffer
	if err := g.Registry().WriteProm(&prom); err != nil {
		return err
	}
	sc, err := parseScrape(&prom)
	if err != nil {
		return err
	}
	m["gateway.backend_latency_us"] = ratio(sc.sumPrefix("gateway_backend_latency_ns_sum"),
		sc.sumPrefix("gateway_backend_latency_ns_count")) / 1e3
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
