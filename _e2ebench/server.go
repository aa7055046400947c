package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// server is one selserve child process on loopback.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	logPath  string
	exited   chan struct{}
	client   *http.Client // control-plane requests (scrapes, model fetch)
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// child to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches selserve serving modelPath as "default". extra
// carries workload flags (-online, -trace-sample, …).
func startServer(bin, workdir, modelPath string, extra ...string) (*server, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	binAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", httpAddr,
		"-listen-bin", binAddr,
		"-model", modelPath,
		// Out of reach: the background retrainer never rebuilds the model
		// mid-run, whatever feedback arrives.
		"-min-retrain", "1000000000",
		"-log-level", "warn",
	}, extra...)
	logPath := filepath.Join(workdir, "selserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	s := &server{
		cmd: cmd, httpAddr: httpAddr, binAddr: binAddr, logPath: logPath,
		exited: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
	}
	go func() {
		_ = cmd.Wait() // the exit status is read through ProcessState
		_ = logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// logTail returns the end of the server log, for error reports.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// waitReady polls until the server answers the probe correctly and
// returns the time since launch: snapshot load, index seeding and
// listener start-up as a client sees them.
func (s *server) waitReady(probe *request, start time.Time) (time.Duration, error) {
	deadline := start.Add(60 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if !s.alive() {
			return 0, fmt.Errorf("selserve exited during start-up: %s", s.logTail())
		}
		l, err := dialLane(s.httpAddr, s.binAddr)
		if err == nil {
			err = l.do(probe)
			l.close()
			if err == nil {
				return time.Since(start), nil
			}
		}
		lastErr = err
		nanosleep(200 * time.Microsecond)
	}
	return 0, fmt.Errorf("selserve not ready after 60s: %v", lastErr)
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get("http://" + s.httpAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

func (s *server) scrape() (*obs.Scrape, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseScrape(bytes.NewReader(b))
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// histQuantileUS is a quantile, in µs, of what one histogram series
// recorded between two scrapes (0 when it recorded nothing).
func histQuantileUS(before, after *obs.Scrape, name, labels string, q float64) float64 {
	a, ok := after.HistogramSnapshot(name, labels)
	if !ok {
		return 0
	}
	if b, ok := before.HistogramSnapshot(name, labels); ok {
		a = a.Delta(b)
	}
	return a.Quantile(q) * 1e6
}

// counterDelta is the growth of an unlabelled counter between scrapes.
func counterDelta(before, after *obs.Scrape, name string) float64 {
	a, _ := after.Value(name, "")
	b, _ := before.Value(name, "")
	return a - b
}

func routeLabel(route string) string { return `{route="` + route + `"}` }
