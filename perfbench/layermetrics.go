package main

// layerMetric is one per-layer metric of a traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every metric a traced run reports, in BENCHMARK.json
// order. Times are measured on every workload; a count or fraction of a
// layer the workload's processes do not run (the deployed gateway's on a
// single daemon, the daemon log's without one) reads 0.
var layerMetrics = []layerMetric{
	{"client.decisions_per_s", "1/s"},
	{"client.p90_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"client.self_us", "us"},
	{"net.roundtrip_us", "us"},
	{"net.transport_us", "us"},
	{"net.self_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.parse_us", "us"},
	{"serve.sem_wait_us", "us"},
	{"serve.singleflight_coalesced_frac", "1"},
	{"serve.self_us", "us"},
	{"cache.hit_frac", "1"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.evictions_per_decision", "1"},
	{"cache.self_us", "us"},
	{"safeguards.evaluate_ns", "ns"},
	{"safeguards.self_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsyncs_per_append", "1"},
	{"wal.compactions_per_kdecision", "1/1000"},
	{"wal.replay_ms", "ms"},
	{"wal.replay_records", "count"},
	{"wal.self_us", "us"},
	{"gateway.hop_us", "us"},
	{"gateway.hedge_frac", "1"},
	{"gateway.hedge_win_frac", "1"},
	{"gateway.flight_coalesced_frac", "1"},
	{"gateway.retry_frac", "1"},
	{"gateway.backend_latency_us", "us"},
	{"parpool.busy_frac", "1"},
	{"parpool.barrier_us", "us"},
	{"parpool.self_us", "us"},
	{"proc.backends.cpu_us_per_decision", "us"},
	{"proc.gateway.cpu_frac", "1"},
	{"proc.generator.cpu_us_per_decision", "us"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_decisions_per_cpu_s", "1/s"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer adds to m, which holds the layer pass's counters, the
// per-layer metrics of a traced run: plain is the untraced half of the
// load, traced the traced half; sl holds the layer pass's spans; before
// and after are the /metrics scrapes of every process under test around
// both halves.
func perLayer(m map[string]float64, w workload, plain, traced *loadResult, sl *spanLog,
	before, after []scrape) {
	client := summarize(traced.spans...)
	inproc := summarize(sl)
	decisions := float64(plain.decisions + traced.decisions)
	d := func(prefix string) float64 { return delta(before, after, prefix) }

	m["client.decisions_per_s"] = ratio(float64(plain.decisions), plain.wall.Seconds())
	m["client.p90_ms"] = plain.windowPctMS(0.90)
	m["client.p99_ms"] = plain.pctMS(0.99)
	m["client.encode_us"] = client.mean(spEncode) / 1e3
	m["client.decode_us"] = client.mean(spDecode) / 1e3
	m["net.roundtrip_us"] = client.mean(spRound) / 1e3
	m["serve.handler_us"] = inproc.mean(spHandler) / 1e3
	m["net.transport_us"] = m["net.roundtrip_us"] - m["serve.handler_us"]
	m["serve.parse_us"] = inproc.mean(spParse) / 1e3
	m["cache.get_ns"] = inproc.mean(spCacheGet)
	m["cache.put_ns"] = inproc.mean(spCachePut)
	m["safeguards.evaluate_ns"] = inproc.mean(spEvaluate)
	m["wal.append_us"] = inproc.mean(spAppend) / 1e3
	m["wal.replay_ms"] = inproc.mean(spReplay) / 1e6
	requests := float64(traced.attempted)
	for _, layer := range []string{"client", "net"} {
		m[layer+".self_us"] = ratio(client.self[layer], requests) / 1e3
	}
	for _, layer := range []string{"serve", "cache", "safeguards", "wal", "parpool"} {
		m[layer+".self_us"] = inproc.self[layer] / layerRequests / 1e3
	}

	m["serve.sem_wait_us"] = ratio(d("http_semaphore_wait_ns_sum"), d("http_semaphore_wait_ns_count")) / 1e3
	leaders, waits := d("singleflight_leader_fills_total"), d("singleflight_coalesced_waits_total")
	m["serve.singleflight_coalesced_frac"] = ratio(waits, leaders+waits)
	hits, misses := d(`cache_hits_total{cache="decisions"}`), d(`cache_misses_total{cache="decisions"}`)
	m["cache.hit_frac"] = ratio(hits, hits+misses)
	m["cache.evictions_per_decision"] = ratio(d(`cache_evictions_total{cache="decisions"}`), decisions)
	m["wal.fsyncs_per_append"] = ratio(d("wal_fsyncs_total"), d("wal_appends_total"))
	m["wal.compactions_per_kdecision"] = 1000 * ratio(d("snapshot_compactions_total"), decisions)

	m["gateway.hop_us"] = inproc.mean(spGateway)/1e3 - m["serve.handler_us"]
	reqs, hedges := d("gateway_requests_total"), d("gateway_hedges_total")
	m["gateway.hedge_frac"] = ratio(hedges, reqs)
	m["gateway.hedge_win_frac"] = ratio(d("gateway_hedge_wins_total"), hedges)
	gl, gc := d("gateway_flight_leader_total"), d("gateway_flight_coalesced_total")
	m["gateway.flight_coalesced_frac"] = ratio(gc, gl+gc)
	m["gateway.retry_frac"] = ratio(d("gateway_retries_total"), reqs)

	// CPU per decision by process; the gateway, when present, is last.
	var backendCPU, gatewayCPU float64
	for _, r := range []*loadResult{plain, traced} {
		for i, c := range r.perProc {
			if w.gateway && i == len(r.perProc)-1 {
				gatewayCPU += c
			} else {
				backendCPU += c
			}
		}
	}
	m["proc.backends.cpu_us_per_decision"] = 1e6 * ratio(backendCPU, decisions)
	m["proc.gateway.cpu_frac"] = ratio(gatewayCPU, gatewayCPU+backendCPU)
	m["proc.generator.cpu_us_per_decision"] = 1e6 * ratio(plain.genCPU+traced.genCPU, decisions)

	m["trace.overhead_p50_ms"] = traced.windowPctMS(0.5) - plain.windowPctMS(0.5)
	m["trace.overhead_decisions_per_cpu_s"] = traced.decisionsPerCPU() - plain.decisionsPerCPU()
}
