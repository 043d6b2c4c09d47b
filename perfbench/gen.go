package main

import (
	"fmt"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/safeguards"
	"repro/internal/serve"
)

// workload is one traffic mix. The daemons under test see only the
// requests it generates from the seed.
type workload struct {
	name     string
	backends int  // hpcexportd processes
	gateway  bool // an hpcexportgw in front of the backends
	wal      bool // backends run with a durable decision log
	hot      bool // cycle a fixed population instead of a never-repeating stream
	post     bool // POST bodies instead of GET queries
	batch    int  // items per POST batch; 0 sends single decisions
}

// workloads lists every traffic mix the benchmark knows. batch_cold is
// runnable on its own but is not in BENCHMARK.json: see README.md.
var workloads = []workload{
	{name: "get_hot", backends: 1, hot: true},
	{name: "post_cold_wal", backends: 1, wal: true, post: true},
	{name: "gateway_get", backends: 3, gateway: true, hot: true},
	{name: "batch_cold", backends: 1, post: true, batch: 64},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hotPopulation is the size of the get_hot and gateway_get request
// population: well inside the daemon's 4096-entry decision LRU, so after
// warm-up every measured request is a cache hit.
const hotPopulation = 256

// splitmix64 is the seeded mixing function every generated choice comes
// from, so request i of a seed is a pure function of (seed, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mix(seed int64, stream, i uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed))^stream) ^ i)
}

var (
	destinations = safeguards.KnownDestinations()
	systemNames  = catalogNames()
	endUses      = []string{"", "weather forecasting", "seismic processing",
		"university research", "automotive crash simulation", "cryptology",
		"nuclear weapons design", "aircraft design"}
	// dates with a supercomputer threshold in force; 0 means the study date.
	dates = []float64{0, 0, 0, 1989.5, 1993.8, 1994.5}
)

func catalogNames() []string {
	var out []string
	for _, s := range catalog.All() {
		out = append(out, s.Name)
	}
	return out
}

// hotRequest draws one candidate member of the hot population.
func hotRequest(seed int64, i uint64) serve.LicenseRequest {
	r := mix(seed, 1, i)
	req := serve.LicenseRequest{
		Destination: destinations[r%uint64(len(destinations))],
		EndUse:      endUses[(r>>8)%uint64(len(endUses))],
		Date:        dates[(r>>16)%uint64(len(dates))],
	}
	if (r>>24)%4 == 0 {
		req.System = systemNames[(r>>28)%uint64(len(systemNames))]
	} else {
		req.CTP = serve.CTPValue(100 + (r>>28)%30000)
	}
	if (r>>48)%8 == 0 {
		req.Date = 0
		req.Threshold = serve.CTPValue([]float64{195, 1500, 2000, 7000}[(r>>52)%4])
	}
	return req
}

// HotPopulation returns the seed's population of distinct requests,
// distinct by canonical decision key.
func HotPopulation(seed int64) []serve.LicenseRequest {
	seen := make(map[string]bool, hotPopulation)
	out := make([]serve.LicenseRequest, 0, hotPopulation)
	var key []byte
	for i := uint64(0); len(out) < hotPopulation; i++ {
		req := hotRequest(seed, i)
		var ok bool
		key, ok = serve.ResolveDecisionKey(key[:0], &req)
		if !ok || seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, req)
	}
	return out
}

// hotOrder is the population index of the hot stream's request i.
func hotOrder(seed int64, i uint64) int {
	return int(mix(seed, 2, i) % hotPopulation)
}

// ColdRequest returns request i of the seed's never-repeating stream. The
// end use carries the index, so no two indices share a canonical key; the
// seed picks the rest and tags the end use.
func ColdRequest(seed int64, i uint64) serve.LicenseRequest {
	r := mix(seed, 3, i)
	return serve.LicenseRequest{
		CTP:         serve.CTPValue(100 + r%30000),
		Destination: destinations[(r>>16)%uint64(len(destinations))],
		EndUse:      "audit " + strconv.FormatUint(mix(seed, 4, 0)%1e6, 36) + "-" + strconv.FormatUint(i, 10),
		Date:        dates[(r>>32)%uint64(len(dates))],
	}
}

// ColdBatch returns batch b of the seed's cold stream: size consecutive
// cold requests, so batch keys never repeat within a run either.
func ColdBatch(seed int64, b uint64, size int) []serve.LicenseRequest {
	out := make([]serve.LicenseRequest, size)
	for j := range out {
		out[j] = ColdRequest(seed, b*uint64(size)+uint64(j))
	}
	return out
}

// systemCTP is the catalog rating of a named system.
func systemCTP(name string) (float64, error) {
	for _, s := range catalog.All() {
		if s.Name == name {
			return float64(s.CTP), nil
		}
	}
	return 0, fmt.Errorf("unknown system %q", name)
}
