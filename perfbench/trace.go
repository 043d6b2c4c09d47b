package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// Span names. The part before the dot is the layer a span's self time is
// charged to.
const (
	spRequest  = "client.request"
	spEncode   = "client.encode"
	spDecode   = "client.decode"
	spRound    = "net.roundtrip"
	spHandler  = "serve.handler"
	spParse    = "serve.parse"
	spCacheGet = "cache.get"
	spCachePut = "cache.put"
	spEvaluate = "safeguards.evaluate"
	spAppend   = "wal.append"
	spReplay   = "wal.replay"
	spPool     = "parpool.run"
	spGateway  = "gateway.forward"
)

// span is one timed call into a layer, made by the benchmark's own code.
// Spans of one request share req; parent indexes the caller's span in
// the same spanLog, -1 for a root.
type span struct {
	name       string
	req        uint64
	parent     int32
	start, end int64 // nanoseconds since the log's epoch
}

// spanLog keeps one goroutine's spans in memory until the run writes
// them out. It is not safe for concurrent use; each worker owns one.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, req uint64, parent int32) int32 {
	l.spans = append(l.spans, span{name: name, req: req, parent: parent,
		start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(id int32) {
	l.spans[id].end = int64(time.Since(l.epoch))
}

// spanStats is the per-name and per-layer accounting of a set of logs.
type spanStats struct {
	count map[string]int     // spans by name
	total map[string]float64 // summed duration by name, ns
	self  map[string]float64 // summed self time by layer, ns
}

// summarize computes span durations and each layer's self time: a span's
// duration minus the part of it its child spans cover.
func summarize(logs ...*spanLog) spanStats {
	st := spanStats{count: map[string]int{}, total: map[string]float64{}, self: map[string]float64{}}
	for _, l := range logs {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			d := s.end - s.start
			st.count[s.name]++
			st.total[s.name] += float64(d)
			st.self[layerOf(s.name)] += float64(d - child[i])
		}
	}
	return st
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// mean returns the mean duration of the named spans in ns, 0 if none.
func (st spanStats) mean(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return st.total[name] / float64(st.count[name])
}

// writeSpans writes every span as one tab-separated line: log, id,
// parent, request, name, start and end in ns since the run's epoch.
func writeSpans(path string, logs ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "log\tid\tparent\treq\tname\tstart_ns\tend_ns")
	for li, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", li, i, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
