package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupLaunches is how many times a run launches the processes under
// test to time set-up; setup_s is the median. One launch jitters by 2×.
const setupLaunches = 15

// warmup is the closed-loop time before measuring: connections are open,
// the hot population is cached, and the daemon's heap has grown. A cold
// stream is sized from the rate of its second half, after start-up stalls.
const warmup = 2 * time.Second

// coldWarmup is how many requests of a cold stream are rendered before
// warm-up: 2 s at 20,000 decisions/s. After warm-up the stream is extended
// to 1.5 times the warm-up rate for the measured time, plus the keys the
// top-up needs. A fresh daemon runs faster than a full one, so the margin
// is larger than it looks. A measured phase that still runs out ends early,
// with a log line, rather than repeat a key.
const coldWarmup = 40000

// options are one run's parameters.
type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding hpcexportd and hpcexportgw
	work     string // scratch directory inside the checkout
}

// cluster is the set of processes under test for one launch.
type cluster struct {
	backends []*proc
	gateway  *proc
}

func (c *cluster) front() string {
	if c.gateway != nil {
		return c.gateway.addr
	}
	return c.backends[0].addr
}

func (c *cluster) procs() []*proc {
	out := append([]*proc(nil), c.backends...)
	if c.gateway != nil {
		out = append(out, c.gateway)
	}
	return out
}

func (c *cluster) pids() []int {
	var out []int
	for _, p := range c.procs() {
		out = append(out, p.pid())
	}
	return out
}

func (c *cluster) stop() {
	for _, p := range c.procs() {
		p.stop()
	}
}

// launch starts the workload's processes: the backends in parallel, then
// the gateway over them. dataDir, when set, is the single backend's log.
func launch(o *options, dataDir string) (*cluster, error) {
	w := o.workload
	c := &cluster{backends: make([]*proc, w.backends)}
	errs := make([]error, w.backends)
	var wg sync.WaitGroup
	for i := range c.backends {
		args := []string{"-addr", "127.0.0.1:0", "-quiet"}
		if dataDir != "" {
			args = append(args, "-data-dir", dataDir, "-fsync", walFsync(o.work))
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			c.backends[i], errs[i] = startProc(fmt.Sprintf("hpcexportd#%d", i),
				filepath.Join(o.bin, "hpcexportd"), daemonProcs, args...)
		}(i, args)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, p := range c.backends {
			if p != nil {
				p.stop()
			}
		}
		return nil, err
	}
	if w.gateway {
		var urls []string
		for _, p := range c.backends {
			urls = append(urls, "http://"+p.addr)
		}
		gw, err := startProc("hpcexportgw", filepath.Join(o.bin, "hpcexportgw"), daemonProcs,
			"-addr", "127.0.0.1:0", "-quiet", "-backends", strings.Join(urls, ","))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.gateway = gw
	}
	return c, nil
}

// timedLaunch launches the processes and returns once the probe request,
// slot of probe's stream, has come back correct, with the time that took.
func timedLaunch(o *options, dataDir string, probe *traffic, slot uint64) (*cluster, float64, error) {
	start := time.Now()
	c, err := launch(o, dataDir)
	if err != nil {
		return nil, 0, err
	}
	var next atomic.Uint64
	l := newLoader(probe, c.front(), 1, &next, nil)
	defer l.close()
	if err := l.once(slot); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	return c, time.Since(start).Seconds(), nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOnce performs one run of one workload.
func runOnce(o *options) (*result, error) {
	w := o.workload
	if err := os.RemoveAll(o.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	logf("%s: rendering expected answers (seed %d)", w.name, o.seed)
	t, err := newTraffic(w, o.seed, coldWarmup/w.decisionsPer())
	if err != nil {
		return nil, err
	}
	// Cold launches without a log are probed with the first member of the
	// seed's hot population; the log's warm restarts probe its last key.
	probe := t
	if !w.hot && !w.wal {
		if probe, err = newTraffic(workload{name: "probe", hot: true}, o.seed, 0); err != nil {
			return nil, err
		}
	}

	// Set-up: launches timed to their first correct decision. The WAL
	// workload's set-up is a warm restart over the log it leaves, timed
	// after the load below.
	var setups []float64
	var c *cluster
	dataDir := ""
	if w.wal {
		dataDir = filepath.Join(o.work, "daemon-wal")
		if c, err = launch(o, dataDir); err != nil {
			return nil, err
		}
	} else {
		n := setupLaunches
		if o.trace {
			n = 1
		}
		for i := 0; i < n; i++ {
			var s float64
			if c, s, err = timedLaunch(o, "", probe, 0); err != nil {
				return nil, err
			}
			setups = append(setups, s)
			if i < n-1 {
				c.stop()
			}
		}
	}
	defer func() {
		if c != nil {
			c.stop()
		}
	}()

	var next atomic.Uint64
	l := newLoader(t, c.front(), loadConns, &next, c.pids())
	defer l.close()
	if w.hot {
		for s := range t.pop {
			if err := l.once(uint64(s)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	logf("%s: warm-up %v", w.name, warmup)
	warm1, err := l.run(warmup/2, false, time.Now())
	if err != nil {
		return nil, err
	}
	warm2, err := l.run(warmup/2, false, time.Now())
	if err != nil {
		return nil, err
	}
	if !w.hot {
		rate := float64(warm2.attempted) / warm2.wall.Seconds()
		l.limit = next.Load() + uint64(1.5*rate*float64(o.seconds))
		n := int(l.limit) + 2*compactEvery
		logf("%s: warm-up ran %.0f requests/s; rendering %d expected answers", w.name, rate, n)
		if err := t.extend(n); err != nil {
			return nil, err
		}
	}

	var before []scrape
	if o.trace {
		for _, p := range c.procs() {
			s, err := fetchScrape(p.addr)
			if err != nil {
				return nil, err
			}
			before = append(before, s)
		}
	}

	measure := time.Duration(o.seconds) * time.Second
	epoch := time.Now()
	var plain, traced *loadResult
	if o.trace {
		logf("%s: untraced %v, then traced %v", w.name, measure/2, measure/2)
		if plain, err = l.run(measure/2, false, epoch); err != nil {
			return nil, err
		}
		if traced, err = l.run(measure/2, true, epoch); err != nil {
			return nil, err
		}
	} else {
		logf("%s: measuring %v", w.name, measure)
		if plain, err = l.run(measure, false, epoch); err != nil {
			return nil, err
		}
	}

	var after []scrape
	if o.trace {
		for _, p := range c.procs() {
			s, err := fetchScrape(p.addr)
			if err != nil {
				return nil, err
			}
			after = append(after, s)
		}
	}
	var rssKiB int64
	for _, pid := range c.pids() {
		kib, err := procHWM(pid)
		if err != nil {
			return nil, err
		}
		rssKiB += kib
	}

	if w.wal {
		last, err := topUp(l, c)
		if err != nil {
			return nil, err
		}
		c.stop()
		c = nil
		if !o.trace {
			for i := 0; i < setupLaunches; i++ {
				rc, s, err := timedLaunch(o, dataDir, t, last)
				if err == nil {
					err = checkReplayed(rc.front())
					rc.stop()
				}
				if err != nil {
					return nil, fmt.Errorf("warm restart: %w", err)
				}
				setups = append(setups, s)
			}
		}
	}

	// Every checked request counts, warm-up included, so a daemon that
	// wedges while warming up fails the run too.
	res := &result{Metrics: map[string]metric{}}
	for _, r := range []*loadResult{warm1, warm2, plain, traced} {
		if r == nil {
			continue
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.firstErr != "" {
			logf("%s: first failure: %s", w.name, r.firstErr)
		}
		if r.exhausted {
			logf("%s: the cold stream ran out; a phase ended early", w.name)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	logf("%s: decisions per CPU-second by window: %.0f", w.name, plain.windows)
	if !o.trace {
		res.Metrics["decisions_per_cpu_s"] = metric{plain.decisionsPerCPU(), "1/s"}
		res.Metrics["p50_ms"] = metric{plain.windowPctMS(0.50), "ms"}
		res.Metrics["success_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "1"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mib"] = metric{float64(rssKiB) / 1024, "MiB"}
		return res, nil
	}

	sl := newSpanLog(epoch, 16*layerRequests)
	logf("%s: in-process layer pass over %d requests", w.name, layerRequests)
	layer, err := layerPass(t, sl, o.work, daemonProcs, dataDir)
	if err != nil {
		return nil, err
	}
	perLayer(layer, w, plain, traced, sl, before, after)
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{layer[lm.name], lm.unit}
	}
	spansPath := filepath.Join(filepath.Dir(o.work), "traces", w.name+".tsv")
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, append(traced.spans, sl)...); err != nil {
		return nil, err
	}
	logf("%s: spans written to %s", w.name, spansPath)
	return res, nil
}

// topUp sends single cold requests on one connection until the daemon
// has compacted its log once more and then committed exactly half a
// compaction interval, so the log it leaves holds the same number of
// records whatever the run's throughput. It returns the last slot sent.
func topUp(l *loader, c *cluster) (uint64, error) {
	addr := c.backends[0].addr
	s0, err := fetchScrape(addr)
	if err != nil {
		return 0, err
	}
	compactions := s0.sumPrefix("snapshot_compactions_total")
	var last uint64
	send := func() error {
		last = l.next.Add(1) - 1
		if _, ok := l.t.slot(last); !ok {
			return errors.New("top-up: cold stream exhausted")
		}
		return l.once(last)
	}
	for i := 0; ; i++ {
		if i > 2*compactEvery {
			return 0, errors.New("top-up: the daemon never compacted its log")
		}
		if err := send(); err != nil {
			return 0, err
		}
		s, err := fetchScrape(addr)
		if err != nil {
			return 0, err
		}
		if s.sumPrefix("snapshot_compactions_total") > compactions {
			break
		}
	}
	for i := 0; i < compactEvery/2; i++ {
		if err := send(); err != nil {
			return 0, err
		}
	}
	return last, nil
}

// walFsync is the decision log's fsync policy for a log in dir: the
// daemon's default, always, where the log is on tmpfs and fsync costs no
// device flush; never elsewhere, so that a disk's flush latency, which
// varies with whatever else the machine's disk serves, does not stand in
// for the program's own cost. The environment block records which.
func walFsync(dir string) string {
	if fsType(dir) == "tmpfs" {
		return "always"
	}
	return "never"
}

// compactEvery is the daemon's default snapshot interval in commits.
const compactEvery = 1024

// checkReplayed fails unless the restarted daemon admitted records from
// its log, so a warm restart that silently started cold is caught.
func checkReplayed(addr string) error {
	s, err := fetchScrape(addr)
	if err != nil {
		return err
	}
	if s.sumPrefix("wal_replayed_records") == 0 {
		return errors.New("restart replayed no records")
	}
	return nil
}

var (
	selfPID     = os.Getpid()
	daemonProcs = runtime.NumCPU() // the daemons' deployed default GOMAXPROCS
	loadConns   = runtime.NumCPU()
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
