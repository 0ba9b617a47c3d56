//go:build unix

package cluster_test

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pathcover/internal/cluster"
)

// childFlag switches the test binary into a stand-in node: the
// supervisor tests spawn this binary itself instead of a real gateway.
const childFlag = "-cluster-test-child"

func TestMain(m *testing.M) {
	if len(os.Args) == 4 && os.Args[1] == childFlag {
		runTestChild(os.Args[2], os.Args[3])
		return
	}
	os.Exit(m.Run())
}

// runTestChild records its PID in dir, binds bind and, on a first start
// (an ephemeral ":0" bind), announces readiness. A respawn, bound to a
// concrete port, never announces, so its supervisor stays mid-spawn
// until Close. The child exits on its own after a minute in case
// nothing kills it.
func runTestChild(bind, dir string) {
	pid := strconv.Itoa(os.Getpid())
	if err := os.WriteFile(filepath.Join(dir, pid), nil, 0o644); err != nil {
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		os.Exit(2)
	}
	defer ln.Close()
	if strings.HasSuffix(bind, ":0") {
		cluster.AnnounceReady(ln.Addr().String())
	}
	time.Sleep(time.Minute)
}

// TestSupervisorCloseDuringRespawn kills a child, waits until its
// replacement process is starting, then closes the supervisor. Close
// must not return while any process the supervisor started is alive.
func TestSupervisorCloseDuringRespawn(t *testing.T) {
	dir := t.TempDir()
	sup := cluster.NewSupervisor(os.Args[0], func(bind string) []string {
		return []string{childFlag, bind, dir}
	})
	t.Cleanup(sup.Close)
	sup.RespawnDelay = 10 * time.Millisecond
	started := func() []int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pids := make([]int, 0, len(entries))
		for _, e := range entries {
			pid, err := strconv.Atoi(e.Name())
			if err != nil {
				t.Fatalf("unexpected file %s", e.Name())
			}
			pids = append(pids, pid)
		}
		return pids
	}
	if _, err := sup.StartN(2); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(started()[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(started()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no respawn started within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sup.Close()
	for _, pid := range started() {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("pid %d is still alive after Close (kill 0: %v)", pid, err)
		}
	}
}
