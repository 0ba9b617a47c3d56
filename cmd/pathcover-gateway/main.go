// Command pathcover-gateway fronts a fleet of pathcoverd nodes with
// the internal/cluster serving tier: consistent-hash routing on
// canonical graph identity, health-checked membership with ejection
// and probation, backoff retries honoring Retry-After, and
// order-preserving /batch fan-out.
//
//	pathcover-gateway -addr :8090 -nodes http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Single-binary cluster mode forks N local daemons on ephemeral ports
// (each an internal/daemon server, the same code pathcoverd runs) and
// supervises them — a killed child respawns on its port, so the
// gateway's probation path readmits it. Each start and respawn is
// logged with the child's address and PID:
//
//	pathcover-gateway -addr :8090 -spawn 3
//
// The gateway speaks the same HTTP surface as a node (/cover, /batch,
// /hamiltonian, /graphs, /healthz, /metrics), so clients and pcbench
// -attack point at it unchanged. Registered-graph ids come back
// node-prefixed ("n2.g5"); ?id= requests pin to that node.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pathcover/internal/cluster"
	"pathcover/internal/daemon"
	"pathcover/internal/metrics"
)

var (
	addr    = flag.String("addr", ":8090", "gateway listen address")
	opsAddr = flag.String("ops", "", "operational listen address serving /metrics and /debug/pprof (empty disables; /metrics is always also on the serving port)")
	nodes   = flag.String("nodes", "", "comma-separated node base URLs to front (mutually exclusive with -spawn)")
	spawnN  = flag.Int("spawn", 0, "fork this many local daemons on ephemeral ports and front them (single-binary cluster)")

	vnodes      = flag.Int("vnodes", 128, "virtual nodes per ring member")
	attempts    = flag.Int("attempts", 0, "attempt cap per request chain, first try included (0 = max(4, nodes))")
	baseBackoff = flag.Duration("backoff", 25*time.Millisecond, "base retry backoff (exponential, jittered)")
	maxBackoff  = flag.Duration("max-backoff", time.Second, "retry backoff cap")
	failThresh  = flag.Int("fail-threshold", 3, "consecutive health failures before ejecting a node")
	probOKs     = flag.Int("probation-oks", 2, "consecutive probe successes readmitting an ejected node (on probation)")
	healthyOKs  = flag.Int("healthy-oks", 3, "consecutive successes graduating probation to healthy")
	probeEvery  = flag.Duration("probe-interval", 250*time.Millisecond, "active /healthz probe interval")
	probeTmout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	maxBody     = flag.Int64("max-body", 64<<20, "request body size limit in bytes (413 beyond it); also caps the vertices a request may declare at max-body/2, bounding per-request memory")

	// Spawned-node knobs (forwarded to each child daemon).
	nodeShards  = flag.Int("node-shards", 0, "solver shards per spawned node (0 = GOMAXPROCS, one worker each)")
	nodeQueue   = flag.Int("node-queue", 0, "admission queue depth per spawned node (0 = 8 per shard)")
	nodeCacheMB = flag.Int64("node-cache-mb", 64, "result cache MiB per spawned node (0 disables)")
	nodeVerify  = flag.Bool("node-verify", false, "spawned nodes re-verify every cover before responding")
	nodeTimeout = flag.Duration("node-request-timeout", 30*time.Second, "per-request deadline inside each spawned node")

	// Child mode (internal: what -spawn forks).
	nodeMode = flag.Bool("node", false, "run as a spawned local daemon (internal; used by -spawn)")
	nodeAddr = flag.String("node-addr", "127.0.0.1:0", "listen address in -node mode (\":0\" picks an ephemeral port)")
)

func main() {
	flag.Parse()
	if *nodeMode {
		runNode()
		return
	}
	if err := runGateway(); err != nil {
		log.Fatalf("pathcover-gateway: %v", err)
	}
}

// runGateway serves until a signal or a listener error. It returns
// instead of exiting, so its deferred cleanup — the supervisor's Close
// above all, which stops the spawned nodes — runs on every path.
func runGateway() error {
	var urls []string
	switch {
	case *spawnN > 0 && *nodes != "":
		return errors.New("-spawn and -nodes are mutually exclusive")
	case *spawnN > 0:
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		sup := cluster.NewSupervisor(exe, func(bind string) []string {
			return []string{
				"-node", "-node-addr", bind,
				"-node-shards", fmt.Sprint(*nodeShards),
				"-node-queue", fmt.Sprint(*nodeQueue),
				"-node-cache-mb", fmt.Sprint(*nodeCacheMB),
				"-node-verify=" + fmt.Sprint(*nodeVerify),
				"-node-request-timeout", nodeTimeout.String(),
				"-max-body", fmt.Sprint(*maxBody),
			}
		})
		defer sup.Close()
		if urls, err = sup.StartN(*spawnN); err != nil {
			return err
		}
	case *nodes != "":
		for _, u := range strings.Split(*nodes, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	default:
		return errors.New("give -nodes or -spawn")
	}
	if len(urls) == 0 {
		return errors.New("no nodes")
	}

	opts := cluster.Options{
		VNodes:        *vnodes,
		MaxAttempts:   *attempts,
		BaseBackoff:   *baseBackoff,
		MaxBackoff:    *maxBackoff,
		FailThreshold: *failThresh,
		ProbationOKs:  *probOKs,
		HealthyOKs:    *healthyOKs,
		ProbeInterval: *probeEvery,
		ProbeTimeout:  *probeTmout,
		MaxBody:       *maxBody,
	}
	gw := cluster.New(urls, opts)
	gw.Start()
	defer gw.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *opsAddr != "" {
		ops := &http.Server{
			Addr:              *opsAddr,
			Handler:           metrics.OpsHandler(gw.ServeMetrics),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("pathcover-gateway: ops: %v", err)
			}
		}()
		log.Printf("pathcover-gateway: ops on %s (/metrics, /debug/pprof)", *opsAddr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("pathcover-gateway: serving on %s, fronting %d node(s): %s",
		*addr, len(urls), strings.Join(urls, ", "))
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("pathcover-gateway: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("pathcover-gateway: shutdown: %v", err)
	}
	return nil
}

// runNode is the forked child: one internal/daemon server on -node-addr,
// announcing its concrete address on stdout for the supervisor.
func runNode() {
	s := daemon.New(daemon.Config{
		Shards:         *nodeShards,
		Queue:          *nodeQueue,
		MaxBody:        *maxBody,
		Verify:         *nodeVerify,
		RequestTimeout: *nodeTimeout,
		CacheMB:        *nodeCacheMB,
	})
	ln, err := net.Listen("tcp", *nodeAddr)
	if err != nil {
		log.Fatalf("pathcover-gateway node: %v", err)
	}
	cluster.AnnounceReady(ln.Addr().String())
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("pathcover-gateway node: serving on %s (%d shards)", ln.Addr(), s.Pool().NumShards())
	select {
	case err := <-errc:
		log.Fatalf("pathcover-gateway node: %v", err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	s.Close()
}
