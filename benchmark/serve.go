package main

import (
	"bufio"
	"context"
	"errors"
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

	"pathcover/internal/metrics"
)

// proc is one server process the benchmark started. Its output goes to
// a log file; stop kills and reaps it.
type proc struct {
	name    string
	url     string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an ephemeral loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startProc launches bin with args plus "-addr 127.0.0.1:<port>" on a
// fresh ephemeral port, logging to logPath, and waits until its
// /healthz answers 200.
func startProc(ctx context.Context, client *http.Client, name, bin, logPath string, args ...string) (*proc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A benchmark killed from outside takes its servers with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		logf.Close() // the child holds its own descriptor
		p := &proc{name: name, url: "http://" + addr, cmd: cmd, logPath: logPath, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // exit status is irrelevant: stop kills it
			close(p.done)
		}()
		if lastErr = p.waitHealthy(ctx, client); lastErr == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, fmt.Errorf("%s never became healthy: %w", name, lastErr)
}

// waitHealthy polls /healthz until it answers 200, the process exits or
// ten seconds pass.
func (p *proc) waitHealthy(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.logPath)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("health check timed out")
}

// stop sends SIGTERM, escalates to SIGKILL after three seconds, and
// returns once the process is reaped.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// pid returns the process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// system is one launched system under test: the processes in start
// order, the nodes among them, and the URL clients send to.
type system struct {
	procs  []*proc // nodes first, then the gateway if any
	nodes  []*proc
	target string
}

// launch starts the workload's servers: one pathcoverd, or two behind
// pathcover-gateway. Every process runs on default flags.
func launch(ctx context.Context, client *http.Client, w *wl, binDir, logDir string, setup int) (*system, error) {
	sys := &system{}
	nodes := 1
	if w.gateway {
		nodes = 2
	}
	for i := 0; i < nodes; i++ {
		p, err := startProc(ctx, client, fmt.Sprintf("pathcoverd%d", i), filepath.Join(binDir, "pathcoverd"),
			filepath.Join(logDir, fmt.Sprintf("setup%d-node%d.log", setup, i)))
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.procs = append(sys.procs, p)
		sys.nodes = append(sys.nodes, p)
	}
	sys.target = sys.nodes[0].url
	if w.gateway {
		urls := make([]string, len(sys.nodes))
		for i, n := range sys.nodes {
			urls[i] = n.url
		}
		gw, err := startProc(ctx, client, "pathcover-gateway", filepath.Join(binDir, "pathcover-gateway"),
			filepath.Join(logDir, fmt.Sprintf("setup%d-gateway.log", setup)), "-nodes", strings.Join(urls, ","))
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.procs = append(sys.procs, gw)
		sys.target = gw.url
	}
	return sys, nil
}

// stop kills and reaps every process, gateway first.
func (s *system) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// scrape reads a process's /metrics through the strict parser.
func scrape(client *http.Client, url string) (*metrics.Exposition, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	return metrics.Parse(string(text))
}

// scrapeAll scrapes every process in order.
func scrapeAll(client *http.Client, ps []*proc) ([]*metrics.Exposition, error) {
	out := make([]*metrics.Exposition, len(ps))
	for i, p := range ps {
		e, err := scrape(client, p.url)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = e
	}
	return out, nil
}

// peakRSSMB reads VmHWM of a process from /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// peakRSS sums peakRSSMB over processes.
func peakRSS(ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		mb, err := peakRSSMB(p.pid())
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads a process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// countWriteErrors counts log lines reporting a failed response write
// (a hedge loser's cancelled response logs "encode: write: broken
// pipe").
func countWriteErrors(paths []string) int {
	n := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.Contains(line, "write: ") {
				n++
			}
		}
	}
	return n
}
