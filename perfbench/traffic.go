package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
)

// arena holds the expected response bodies in large byte chunks, indexed
// by offsets rather than slices, so hundreds of thousands of them cost
// the generator's garbage collector nothing to scan and growing it never
// copies what is already there.
type arena struct {
	chunks [][]byte
	offs   []uint64 // chunk<<arenaShift | offset within the chunk
	lens   []uint32
}

const arenaShift = 22 // 4 MiB chunks

func (a *arena) add(b []byte) {
	n := len(a.chunks)
	if n == 0 || len(a.chunks[n-1])+len(b) > 1<<arenaShift {
		a.chunks = append(a.chunks, make([]byte, 0, max(1<<arenaShift, len(b))))
		n++
	}
	c := a.chunks[n-1]
	a.offs = append(a.offs, uint64(n-1)<<arenaShift|uint64(len(c)))
	a.lens = append(a.lens, uint32(len(b)))
	a.chunks[n-1] = append(c, b...)
}

func (a *arena) get(i int) []byte {
	off := a.offs[i]
	lo := off & (1<<arenaShift - 1)
	return a.chunks[off>>arenaShift][lo : lo+uint64(a.lens[i])]
}

func (a *arena) len() int { return len(a.offs) }

// traffic is a workload's seeded request stream together with the
// expected body of every request the run may send. Request i of the
// stream is the same for every connection count and every run.
type traffic struct {
	w       workload
	seed    int64
	pop     []serve.LicenseRequest // hot workloads: the population
	targets []string               // hot workloads: each member's GET target
	want    arena                  // hot: by population index; cold: by stream index
	ref     http.Handler           // the in-process reference server
}

// newTraffic generates the stream and renders the expected bodies with an
// in-process reference server: the whole population of a hot workload,
// the first n requests of a cold one.
func newTraffic(w workload, seed int64, n int) (*traffic, error) {
	ref, err := serve.New(serve.Config{Clock: time.Now})
	if err != nil {
		return nil, err
	}
	t := &traffic{w: w, seed: seed, ref: ref.Handler()}
	if w.hot {
		t.pop = HotPopulation(seed)
		for _, req := range t.pop {
			t.targets = append(t.targets, "/v1/license?"+req.Values().Encode())
		}
		n = len(t.pop)
	}
	return t, t.extend(n)
}

// extend renders expected bodies until n requests have one. A run never
// renders while it measures: a cold workload extends its stream after
// warm-up, sized from the warm-up rate.
func (t *traffic) extend(n int) error {
	var buf []byte
	for i := t.want.len(); i < n; i++ {
		var method, target string
		method, target, buf = t.encode(buf[:0], uint64(i))
		rec := httptest.NewRecorder()
		t.ref.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(buf)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: reference server answered request %d with %d: %s",
				t.w.name, i, rec.Code, rec.Body.Bytes())
		}
		t.want.add(rec.Body.Bytes())
	}
	return nil
}

// slot maps stream index i to its expected-body index, false when a cold
// stream has run out of rendered requests.
func (t *traffic) slot(i uint64) (int, bool) {
	if t.w.hot {
		return hotOrder(t.seed, i), true
	}
	return int(i), i < uint64(t.want.len())
}

// encode renders the HTTP request for stream slot s: a GET target, or a
// POST target with its body appended to dst.
func (t *traffic) encode(dst []byte, s uint64) (method, target string, body []byte) {
	switch {
	case t.w.hot:
		return http.MethodGet, t.targets[s], dst
	case t.w.batch > 0:
		body, _ = serve.AppendBatchRequest(dst, ColdBatch(t.seed, s, t.w.batch))
		return http.MethodPost, "/v1/license", body
	default:
		req := ColdRequest(t.seed, s)
		body, _ = serve.AppendLicenseRequest(dst, &req)
		return http.MethodPost, "/v1/license", body
	}
}

// request returns the decoded request(s) of slot s, for the in-process
// layer measurements.
func (t *traffic) request(s uint64) []serve.LicenseRequest {
	switch {
	case t.w.hot:
		return []serve.LicenseRequest{t.pop[s]}
	case t.w.batch > 0:
		return ColdBatch(t.seed, s, t.w.batch)
	default:
		return []serve.LicenseRequest{ColdRequest(t.seed, s)}
	}
}

// decisionsPer is how many decisions one request carries.
func (w workload) decisionsPer() int {
	if w.batch > 0 {
		return w.batch
	}
	return 1
}

// decodeOK parses a response body the way a client of the service would.
func (t *traffic) decodeOK(body []byte) bool {
	if t.w.batch > 0 {
		var br serve.BatchResponse
		return serve.DecodeBatchResponse(body, &br) && len(br.Decisions) == t.w.batch
	}
	var lr serve.LicenseResponse
	return serve.DecodeLicenseResponse(body, &lr)
}
