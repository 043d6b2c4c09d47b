// Command perfbench is the repository's benchmark: it launches the real
// hpcexportd (and hpcexportgw) binaries as separate processes, drives
// them from this process with a closed loop of seeded requests, checks
// every answer byte for byte against an in-process reference server, and
// prints the metrics as one JSON line. See README.md for the workloads
// and metrics; run.sh builds everything and runs it.
//
//	perfbench -bin DIR -work DIR -workload get_hot -seed 1 -seconds 10 -trace 0
//	perfbench -bin DIR -work DIR -workload all -repeat 10   # steadiness check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one run's wall time, set-up and layer pass included.
const runLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed the workload's requests are generated from")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "runs per workload with seeds seed, seed+1, ...; reports medians, quartiles and spreads against BENCHMARK.json's bounds")
		bin     = flag.String("bin", "", "directory holding the hpcexportd and hpcexportgw binaries")
		work    = flag.String("work", "", "scratch directory for decision logs and traces")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)

	if *name == "all" || *repeat > 0 {
		os.Exit(repeatRuns(*name, *seed, *seconds, *trace, max(*repeat, 1)))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := &options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work + "/" + w.name}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			stopAll()
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		case <-time.After(runLimit):
			stopAll()
			fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		}
		os.Exit(1)
	}()

	res, err := runOnce(o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON(map[string]any{"env": environment(o)})
	printJSON(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d requests failed\n", w.name, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// environment describes the machine and set-up a result came from; the
// repeat mode overwrites runs with its count.
func environment(o *options) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(),
		"gomaxprocs": map[string]int{
			"generator":   1,
			"hpcexportd":  daemonProcs,
			"hpcexportgw": daemonProcs,
			"layer_pass":  daemonProcs,
		},
		"go":          runtime.Version(),
		"commit":      commit(),
		"cpu":         cpuModel(),
		"kernel":      firstLine("/proc/sys/kernel/osrelease"),
		"workload":    o.workload.name,
		"seed":        o.seed,
		"run_seconds": o.seconds,
		"runs":        1,
		"traced":      o.trace,
		"traffic":     fmt.Sprintf("loopback 127.0.0.1, closed loop, %d keep-alive connections", loadConns),
		"wal_fs":      fsType(o.work),
		"wal_fsync":   walFsync(o.work),
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, where the decision logs live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4 (not tmpfs)"
	case 0x794c7630:
		return "overlayfs (not tmpfs)"
	case 0x58465342:
		return "xfs (not tmpfs)"
	}
	return fmt.Sprintf("magic %#x (not tmpfs)", st.Type)
}
