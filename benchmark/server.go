package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const loadToken = "eeload"

// server is one eeserve child process. The benchmark owns its whole
// life: it is started on a free loopback port, its stderr goes to a log
// under the output directory, and stop kills it and waits for it, on
// every exit path.
type server struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// liveServers is every child not yet stopped, so a signal handler can
// stop them all.
var liveServers = struct {
	sync.Mutex
	m map[*server]struct{}
}{m: map[*server]struct{}{}}

func stopAllServers() {
	liveServers.Lock()
	var all []*server
	for s := range liveServers.m {
		all = append(all, s)
	}
	liveServers.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches eeserve with the given flags plus -addr.
func startServer(bin, logPath string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the benchmark itself is killed, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	liveServers.Lock()
	liveServers.m[s] = struct{}{}
	liveServers.Unlock()
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop kills the child with SIGKILL and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only if the child already ended
	<-s.exited
	liveServers.Lock()
	delete(liveServers.m, s)
	liveServers.Unlock()
}

// logTail returns the end of the child's log, for error reports.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

type health struct {
	Status  string `json:"status"`
	Triples int    `json:"triples"`
}

// waitReady polls /healthz until it answers 200, failing at once with
// the child's log if the child exits first.
func (s *server) waitReady(c *client, timeout time.Duration) (health, error) {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.exited:
			return health{}, fmt.Errorf("eeserve exited before it was ready (%v); log:\n%s", s.waitErr, s.logTail())
		default:
		}
		if body, code, err := c.get("/healthz"); err == nil && code == 200 {
			var h health
			if err := json.Unmarshal(body, &h); err != nil {
				return h, fmt.Errorf("/healthz: %w", err)
			}
			return h, nil
		}
		if time.Now().After(deadline) {
			return health{}, fmt.Errorf("eeserve not ready after %v; log:\n%s", timeout, s.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrape is one reading of the server's /metrics: series name (with its
// label set, as exposed) to value.
type scrape map[string]float64

func (c *client) scrape() (scrape, error) {
	body, code, err := c.get("/metrics")
	if err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	if code != 200 {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// delta is after − before for one series.
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

// ratio is num ÷ den, or 0 when the denominator is 0: a layer that did
// no work on a workload reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSKB reads VmHWM, the process's peak resident set, from
// /proc/<pid>/status.
func peakRSSKB(pid int) (float64, error) {
	const field = "VmHWM"
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSecond = 100

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicksPerSecond, nil
}

// dirBytes sums the regular files under dir; walBytes is the share held
// by WAL segments.
func dirBytes(dir string) (total, walBytes int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.HasPrefix(d.Name(), "wal-") {
			walBytes += info.Size()
		}
		return nil
	})
	return
}
