package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rept/internal/obs"
)

const (
	bootTimeout = 30 * time.Second
	stopTimeout = 20 * time.Second
	// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
	// fixes it at 100.
	clockTicks = 100
)

// serverProcs is the GOMAXPROCS reptserve runs with, set explicitly so
// the run fingerprint records it.
var serverProcs = runtime.NumCPU()

// server is one reptserve process on loopback.
type server struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration // spawn to the first /readyz 200
	done   chan error    // the process's exit status
	log    *os.File
	walDir string

	stopped bool
	stopErr error
}

// startServer spawns reptserve with the workload's flags on a free loopback
// port, from empty state, and waits for /readyz to answer 200.
func startServer(o options, w *workload) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, w.flags...)
	var walDir string
	if w.durable {
		walDir = filepath.Join(o.workdir, "wal-"+w.name)
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		args = append(args, "-wal-dir", walDir)
	}
	logf, err := os.Create(filepath.Join(o.workdir, "reptserve-"+w.name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(o.server, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan error, 1), log: logf, walDir: walDir}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting reptserve: %w", err)
	}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		if resp, err := hc.Get(s.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Since(start) > bootTimeout {
			_ = s.stop()
			return nil, fmt.Errorf("reptserve not ready after %v (log %s)", bootTimeout, logf.Name())
		}
		select {
		case err := <-s.done:
			s.stopped = true
			logf.Close()
			return nil, fmt.Errorf("reptserve exited while booting: %v (log %s)", err, logf.Name())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM, on which reptserve drains and exits, and waits for
// the process, killing it if it outlives stopTimeout. Calling stop again
// returns the first result.
func (s *server) stop() error {
	if s.stopped {
		return s.stopErr
	}
	s.stopped = true
	defer s.log.Close()
	if s.walDir != "" {
		defer os.RemoveAll(s.walDir)
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		if err != nil {
			s.stopErr = fmt.Errorf("reptserve exited with %v (log %s)", err, s.log.Name())
		}
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.done
		s.stopErr = fmt.Errorf("reptserve ignored SIGTERM for %v and was killed", stopTimeout)
	}
	return s.stopErr
}

// scrape reads and parses /metrics.
func (s *server) scrape(c *conn) (*obs.Exposition, error) {
	resp, err := c.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseExposition(resp.Body)
}

// cpu is the server's user and system CPU time so far.
func (s *server) cpu() (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc stat CPU times: %v %v", err1, err2)
	}
	return time.Duration(ut) * time.Second / clockTicks, time.Duration(st) * time.Second / clockTicks, nil
}

// peakRSS is the server's VmHWM in bytes.
func (s *server) peakRSS() (float64, error) {
	return procBytes(strconv.Itoa(s.cmd.Process.Pid), "VmHWM")
}

// sampleRSS reads the server's resident set size every 100ms until stop is
// closed, then sends the samples, in bytes, on the returned channel.
func (s *server) sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	pid := strconv.Itoa(s.cmd.Process.Pid)
	go func() {
		var xs []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- xs
				return
			case <-tick.C:
				if v, err := procBytes(pid, "VmRSS"); err == nil {
					xs = append(xs, v)
				}
			}
		}
	}()
	return out
}

// procBytes reads a kB field of /proc/<pid>/status, such as VmHWM, in
// bytes.
func procBytes(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}
