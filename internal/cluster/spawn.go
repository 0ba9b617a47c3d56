package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// ReadyPrefix is the line a spawned node prints on stdout once it is
// listening: "NODE_READY addr=127.0.0.1:PORT". The supervisor scans
// for it to learn the ephemeral port; everything else a child says
// goes to (or is passed through to) stderr.
const ReadyPrefix = "NODE_READY addr="

// AnnounceReady prints the ready line for addr. Called by the child
// side (pathcover-gateway -node) right after Listen succeeds.
func AnnounceReady(addr string) {
	fmt.Fprintf(os.Stdout, "%s%s\n", ReadyPrefix, addr)
}

// Supervisor forks and babysits local daemon processes for the
// single-binary -spawn mode: children start on ephemeral ports,
// announce themselves via ReadyPrefix, and a child that dies (CI's
// SIGKILL included) is respawned on the same concrete port after a
// short delay — so an ejected node comes back at its old address and
// the gateway's probation path readmits it, no reconfiguration. Every
// start and respawn is logged with the child's address and PID. On
// Linux the children also die with the process that started them, so a
// supervisor that never reaches Close leaves no node behind.
type Supervisor struct {
	exe  string
	args func(addr string) []string // full child argv for binding addr

	// ReadyTimeout bounds the wait for a child's ready line (default
	// 30s); RespawnDelay is the pause before restarting a dead child
	// (default 200ms).
	ReadyTimeout time.Duration
	RespawnDelay time.Duration

	mu       sync.Mutex
	children []*child
	closed   bool
	done     chan struct{}  // closed by Close: stops respawns and ready waits
	watchers sync.WaitGroup // one watch goroutine per child
}

type child struct {
	addr string // concrete host:port after first ready
	cmd  *exec.Cmd
}

// NewSupervisor builds a supervisor that launches exe with
// args("host:port") as the child argv. args must make the child bind
// that address (":0" forms pick an ephemeral port) and AnnounceReady
// on it.
func NewSupervisor(exe string, args func(addr string) []string) *Supervisor {
	return &Supervisor{
		exe:          exe,
		args:         args,
		ReadyTimeout: 30 * time.Second,
		RespawnDelay: 200 * time.Millisecond,
		done:         make(chan struct{}),
	}
}

// StartN spawns n children on ephemeral ports and returns their base
// URLs once all are ready. Each child gets a watchdog goroutine that
// respawns it on its concrete port if it dies.
func (s *Supervisor) StartN(n int) ([]string, error) {
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cmd, addr, err := s.spawn("127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("spawn node %d: %w", i, err)
		}
		log.Printf("pathcover-gateway: started node %s (pid %d)", addr, cmd.Process.Pid)
		c := &child{addr: addr, cmd: cmd}
		s.mu.Lock()
		s.children = append(s.children, c)
		s.mu.Unlock()
		s.watchers.Add(1)
		go s.watch(c, cmd)
		urls = append(urls, "http://"+addr)
	}
	return urls, nil
}

// spawn starts one child bound to bindAddr and waits for its ready
// line, returning the concrete address it announced. A Close during
// the wait kills the child and fails the spawn.
func (s *Supervisor) spawn(bindAddr string) (*exec.Cmd, string, error) {
	cmd := exec.Command(s.exe, s.args(bindAddr)...)
	cmd.Stderr = os.Stderr
	setDeathSignal(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, ReadyPrefix) {
				addrc <- strings.TrimSpace(strings.TrimPrefix(line, ReadyPrefix))
				// Keep draining so the child never blocks on stdout.
				go io.Copy(io.Discard, stdout)
				return
			}
			fmt.Fprintln(os.Stderr, line)
		}
		errc <- fmt.Errorf("child exited before announcing readiness")
	}()
	select {
	case addr := <-addrc:
		return cmd, addr, nil
	case err := <-errc:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", err
	case <-time.After(s.ReadyTimeout):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("child not ready within %v", s.ReadyTimeout)
	case <-s.done:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", errSupervisorClosed
	}
}

var errSupervisorClosed = errors.New("supervisor closed")

// watch reaps a child and respawns it — on the same concrete port, so
// its ring identity and announced URL stay valid — until Close. It
// owns every process it starts: each one is either installed in c,
// where Close kills it, or killed here when Close ran first.
func (s *Supervisor) watch(c *child, cmd *exec.Cmd) {
	defer s.watchers.Done()
	for {
		cmd.Wait()
		if cmd = s.respawn(c.addr); cmd == nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cmd.Process.Kill()
			cmd.Wait()
			return
		}
		c.cmd = cmd
		s.mu.Unlock()
		log.Printf("pathcover-gateway: respawned node %s (pid %d)", c.addr, cmd.Process.Pid)
	}
}

// respawn starts a replacement child on addr after RespawnDelay,
// retrying every second while the spawn fails (the port may need a beat
// to free after a SIGKILL). It returns nil once Close has run.
func (s *Supervisor) respawn(addr string) *exec.Cmd {
	delay := s.RespawnDelay
	for {
		select {
		case <-s.done:
			return nil
		case <-time.After(delay):
		}
		cmd, _, err := s.spawn(addr)
		if err == nil {
			return cmd
		}
		if errors.Is(err, errSupervisorClosed) {
			return nil
		}
		fmt.Fprintf(os.Stderr, "pathcover-gateway: respawn %s: %v\n", addr, err)
		delay = time.Second
	}
}

// Close stops respawning, kills every child and returns once each
// watch goroutine has reaped its child, so no process the supervisor
// started outlives it. Close may be called more than once.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	for _, c := range s.children {
		c.cmd.Process.Kill()
	}
	s.mu.Unlock()
	s.watchers.Wait()
}
