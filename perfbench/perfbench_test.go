package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestSeedReproducesRequests(t *testing.T) {
	a, b := HotPopulation(7), HotPopulation(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different hot populations")
	}
	if len(a) != hotPopulation {
		t.Fatalf("hot population has %d members, want %d", len(a), hotPopulation)
	}
	if reflect.DeepEqual(a, HotPopulation(8)) {
		t.Error("seeds 7 and 8 gave the same hot population")
	}
	for i := uint64(0); i < 1000; i++ {
		if hotOrder(7, i) != hotOrder(7, i) {
			t.Fatalf("hot order %d differs between calls", i)
		}
		if ColdRequest(7, i) != ColdRequest(7, i) {
			t.Fatalf("cold request %d differs between calls", i)
		}
	}
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if ColdRequest(7, i) == ColdRequest(8, i) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 7 and 8 share %d of 1000 cold requests", same)
	}
}

// coldKeys adds the canonical decision keys of reqs to seen, failing on a
// request that does not resolve or a key already seen.
func coldKeys(t *testing.T, reqs []serve.LicenseRequest, seen map[string]bool) {
	t.Helper()
	var key []byte
	for i := range reqs {
		var ok bool
		key, ok = serve.ResolveDecisionKey(key[:0], &reqs[i])
		if !ok {
			t.Fatalf("request %+v does not resolve", reqs[i])
		}
		if seen[string(key)] {
			t.Fatalf("key %q repeats", key)
		}
		seen[string(key)] = true
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seen := map[string]bool{}
		var reqs []serve.LicenseRequest
		for i := uint64(0); i < 50000; i++ {
			reqs = append(reqs, ColdRequest(seed, i))
		}
		coldKeys(t, reqs, seen)

		seen = map[string]bool{}
		for b := uint64(0); b < 500; b++ {
			coldKeys(t, ColdBatch(seed, b, 64), seen)
		}
	}
}

// TestReferenceAnswersEveryRequest renders expected answers for every
// workload and several seeds: the reference server must answer 200 to
// each generated request, so no operation of a run is expected to fail.
func TestReferenceAnswersEveryRequest(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2, 3} {
			tr, err := newTraffic(w, seed, 256)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if tr.want.len() == 0 {
				t.Fatalf("%s seed %d: nothing rendered", w.name, seed)
			}
		}
	}
}

func TestArenaKeepsBodiesApart(t *testing.T) {
	var a arena
	big := strings.Repeat("x", 1<<arenaShift-3)
	for _, s := range []string{"alpha", big, "beta", "", "gamma"} {
		a.add([]byte(s))
	}
	for i, want := range []string{"alpha", big, "beta", "", "gamma"} {
		if got := string(a.get(i)); got != want {
			t.Errorf("body %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestPercentileExact(t *testing.T) {
	var s []int64
	for i := int64(100); i >= 1; i-- {
		s = append(s, i)
	}
	sortInt64(s)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.q*100, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %d, want 7", got)
	}
	if got := percentile([]int64{1, 2}, 0.5); got != 1 {
		t.Errorf("p50 of {1,2} = %d, want 1 (nearest rank)", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{0.131, 0.129, 0.140, 0.127, 0.133, 0.150, 0.128, 0.131, 0.129, 0.135},
			[3]float64{0.12875, 0.131, 0.13625}},
	} {
		q1, q2, q3 := quartiles(c.data)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.data, i, got, c.want[i])
			}
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a parenthesis; utime is 250 and
	// stime 50 ticks.
	text := "9994 (hpc (x) d) R 9949 9994 9949 0 -1 4194304 82 0 0 0 250 50 0 0 20 0 1 0 2067880 2568192 288\n"
	got, err := parseStatCPU(text)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Errorf("cpu = %v s, want 3", got)
	}
	for _, bad := range []string{"", "12 (x) R 1 2", "12 (x) R 1 2 3 4 5 6 7 8 9 a b 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) gave no error", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	text := "Name:\thpcexportd\nVmPeak:\t 1260000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t   14000 kB\n"
	got, err := parseStatusHWM(text)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15360 {
		t.Errorf("VmHWM = %d KiB, want 15360", got)
	}
	if _, err := parseStatusHWM("Name:\tx\nVmRSS:\t 1 kB\n"); err == nil {
		t.Error("status without VmHWM gave no error")
	}
}

func TestParseScrape(t *testing.T) {
	text := `# HELP cache_hits_total lookups answered from the cache
# TYPE cache_hits_total counter
cache_hits_total{cache="decisions"} 12
cache_hits_total{cache="snapshots"} 3
http_request_ns_sum{route="/v1/license"} 304452
http_request_ns_bucket{route="/v1/license",le="1023"} 5 # {trace_id="abc"} 900
`
	s, err := parseScrape(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sumPrefix(`cache_hits_total{cache="decisions"}`); got != 12 {
		t.Errorf("decision hits = %v, want 12", got)
	}
	if got := s.sumPrefix("cache_hits_total"); got != 15 {
		t.Errorf("all hits = %v, want 15", got)
	}
	if got := s[`http_request_ns_bucket{route="/v1/license",le="1023"}`]; got != 5 {
		t.Errorf("bucket with exemplar = %v, want 5", got)
	}
	after := scrape{`cache_hits_total{cache="decisions"}`: 20}
	if got := delta([]scrape{s}, []scrape{after}, `cache_hits_total{cache="decisions"}`); got != 8 {
		t.Errorf("delta = %v, want 8", got)
	}
}

func TestSelfTime(t *testing.T) {
	l := &spanLog{spans: []span{
		{name: spRequest, parent: -1, start: 0, end: 100},
		{name: spEncode, parent: 0, start: 10, end: 30},
		{name: spRound, parent: 0, start: 40, end: 90},
		{name: spHandler, parent: -1, start: 200, end: 260},
	}}
	st := summarize(l)
	// client: the root's 30 ns not covered by children, plus encode's 20.
	for layer, want := range map[string]float64{"client": 30 + 20, "net": 50, "serve": 60} {
		if st.self[layer] != want {
			t.Errorf("self[%s] = %v, want %v", layer, st.self[layer], want)
		}
	}
	if got := st.mean(spRound); got != 50 {
		t.Errorf("mean roundtrip = %v, want 50", got)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and this program in step:
// every listed workload exists and the per-layer list is the one a traced
// run prints.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit,
				layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
