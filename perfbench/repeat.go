package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/report"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// spreadOf is (q3 − q1) / median of a metric's values over repeated runs.
func spreadOf(vals []float64) (med, q1, q3, spread float64) {
	q1, med, q3 = quartiles(vals)
	if med == 0 {
		return med, q1, q3, 0
	}
	return med, q1, q3, (q3 - q1) / med
}

// failure is one check the repeated runs did not pass, reported with
// what was expected, what was measured and the tolerance allowed.
type failure struct {
	what      string
	expected  string
	actual    string
	tolerance string
}

// repeatRuns runs each workload n times, with seeds seed … seed+n−1, as
// child processes of this binary. It prints every metric's median,
// quartiles and spread, then every failed run and every end-to-end
// metric whose spread exceeds its bound in BENCHMARK.json, all at once.
// It returns the exit code: 0 only when nothing failed.
func repeatRuns(name string, seed int64, seconds, trace, n int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var names []string
	if name == "all" {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	} else {
		names = []string{name}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	var failures []failure
	var env map[string]any
	for _, wn := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var attempted, failed int64
		for r := 0; r < n; r++ {
			s := seed + int64(r)
			cmd := exec.Command(exe, "-bin", flag.Lookup("bin").Value.String(),
				"-work", flag.Lookup("work").Value.String(), "-workload", wn,
				"-seed", strconv.FormatInt(s, 10), "-seconds", strconv.Itoa(seconds),
				"-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
				failures = append(failures, failure{fmt.Sprintf("%s seed %d", wn, s),
					"a result line", fmt.Sprintf("exit %v, no result", err), "none"})
				continue
			}
			if len(lines) > 1 {
				var e struct {
					Env map[string]any `json:"env"`
				}
				if json.Unmarshal([]byte(lines[len(lines)-2]), &e) == nil && e.Env != nil {
					env = e.Env
				}
			}
			attempted += res.Attempted
			failed += res.Failed
			if !res.Correct {
				failures = append(failures, failure{fmt.Sprintf("%s seed %d", wn, s),
					"correct, 0 failed", fmt.Sprintf("%d of %d failed", res.Failed, res.Attempted), "0"})
			}
			for _, k := range report.SortedKeys(res.Metrics) {
				values[k] = append(values[k], res.Metrics[k].Value)
				units[k] = res.Metrics[k].Unit
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", wn, s, oneLine(res.Metrics))
		}

		fmt.Printf("%s: %d runs, %d requests, %d failed, correct=%v\n", wn, n, attempted, failed, failed == 0)
		fmt.Printf("  %-40s %14s %14s %14s %9s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
		for _, k := range report.SortedKeys(values) {
			med, q1, q3, spread := spreadOf(values[k])
			bound, gated := bounds[k]
			bs := "-"
			if gated {
				bs = strconv.FormatFloat(bound, 'f', 3, 64)
			}
			fmt.Printf("  %-40s %14.6g %14.6g %14.6g %9.4f %7s  %s\n", k, med, q1, q3, spread, bs, units[k])
			// setup_s is gated on its median only: its spread is reported
			// but, as in the acceptance rule, not held to the bound.
			if gated && k != "setup_s" && n > 1 && spread > bound {
				failures = append(failures, failure{wn + " " + k,
					fmt.Sprintf("(q3-q1)/median <= %.3f", bound),
					fmt.Sprintf("%.4f (median %.6g, q1 %.6g, q3 %.6g)", spread, med, q1, q3),
					fmt.Sprintf("%.3f", bound)})
			}
		}
	}
	if env != nil {
		env["runs"] = n
		delete(env, "seed")
		delete(env, "workload")
		printJSON(map[string]any{"env": env})
	}
	if len(failures) > 0 {
		fmt.Printf("%d failures:\n", len(failures))
		for _, f := range failures {
			fmt.Printf("  %s: expected %s; actual %s; tolerance %s\n", f.what, f.expected, f.actual, f.tolerance)
		}
		return 1
	}
	fmt.Println("all runs correct; every gated spread within its bound")
	return 0
}

func oneLine(ms map[string]metric) string {
	var b bytes.Buffer
	for _, k := range report.SortedKeys(ms) {
		fmt.Fprintf(&b, "%s=%.6g%s ", k, ms[k].Value, ms[k].Unit)
	}
	return strings.TrimSpace(b.String())
}
