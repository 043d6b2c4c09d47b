package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: sample name with its labels, as
// printed, to value.
type scrape map[string]float64

// parseScrape reads Prometheus text exposition. Comment lines are
// skipped, and an exemplar suffix (" # {...}") is dropped.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// scrapeClient fetches /metrics outside the load's own connections.
var scrapeClient = &http.Client{Timeout: clientTimeout}

func fetchScrape(addr string) (scrape, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s answered %d", addr, resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

// sumPrefix adds every sample whose name-with-labels starts with prefix;
// a metric absent from the exposition sums to zero.
func (s scrape) sumPrefix(prefix string) float64 {
	var t float64
	//hpcvet:allow maporder the samples summed are integer-valued counters, so the float sum is exact in any order
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// delta sums prefix across the after scrapes minus the before scrapes.
func delta(before, after []scrape, prefix string) float64 {
	var d float64
	for _, s := range after {
		d += s.sumPrefix(prefix)
	}
	for _, s := range before {
		d -= s.sumPrefix(prefix)
	}
	return d
}
