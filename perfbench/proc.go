package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture the toolchain supports.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from the text of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(text string) (float64, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, errors.New("stat: no command field")
	}
	// After ")" come field 3 (state) onwards; utime and stime are fields
	// 14 and 15, so indices 11 and 12 here.
	f := strings.Fields(text[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// parseStatusHWM returns VmHWM, the peak resident set, in KiB from the
// text of /proc/<pid>/status.
func parseStatusHWM(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("status: no VmHWM line")
}

func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

// listenLine matches the line each daemon prints once its listener is
// bound: "serving on http://ADDR" or "routing for N backends on http://ADDR".
var listenLine = regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)

// proc is one process under test.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string        // host:port it listens on
	drained chan struct{} // closed when its stderr reaches EOF
	stopped atomic.Bool
}

// live tracks started processes so every exit path can stop them.
var live struct {
	sync.Mutex
	procs []*proc
}

// startProc launches bin and returns once it has printed its listen
// address. gomaxprocs is set explicitly in its environment.
func startProc(name, bin string, gomaxprocs int, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, drained: make(chan struct{})}
	live.Lock()
	live.procs = append(live.procs, p)
	live.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		out := addr
		sc := bufio.NewScanner(stderr)
		var tail []string
		for sc.Scan() {
			line := sc.Text()
			if m := listenLine.FindStringSubmatch(line); m != nil && out != nil {
				out <- m[1]
				out = nil
				continue
			}
			if len(tail) < 20 {
				tail = append(tail, line)
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		if out != nil {
			out <- ""
		}
		if !p.stopped.Load() && len(tail) > 0 {
			fmt.Fprintf(os.Stderr, "%s: %s\n", name, strings.Join(tail, "\n"))
		}
	}()
	select {
	case a := <-addr:
		if a == "" {
			p.stop()
			return nil, fmt.Errorf("%s exited before listening", name)
		}
		p.addr = a
		return p, nil
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 20s", name)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to drain and exit, and kills
// it if it has not exited within ten seconds.
func (p *proc) stop() {
	if p.stopped.Swap(true) {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	_ = p.cmd.Wait()
}

// stopAll stops every process still running.
func stopAll() {
	live.Lock()
	procs := live.procs
	live.procs = nil
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
}
