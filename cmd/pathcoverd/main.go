// Command pathcoverd serves minimum path covers of cographs over HTTP
// from a sharded pathcover.Pool.
//
//	pathcoverd -addr :8080 -shards 4
//
// The server itself lives in internal/daemon (shared with
// pathcover-gateway's -spawn mode and the cluster tests); this binary
// is the flag surface, the PGO/cpuprofile plumbing and the signal
// lifecycle around it. See the package comment of internal/daemon for
// the endpoint and status-code contract.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"pathcover/internal/daemon"
	"pathcover/internal/metrics"
)

var (
	addr       = flag.String("addr", ":8080", "listen address")
	shards     = flag.Int("shards", 0, "solver shards (0 = GOMAXPROCS, one worker each; k shards get GOMAXPROCS/k workers each)")
	queue      = flag.Int("queue", 0, "admission queue depth (0 = 8 per shard, negative = unbounded)")
	maxBody    = flag.Int64("max-body", 64<<20, "request body size limit in bytes (413 beyond it); also caps the vertices a request may declare at max-body/2, bounding per-request memory")
	verify     = flag.Bool("verify", false, "re-verify every cover before responding (debugging; O(n) extra per request)")
	reqTimeout = flag.Duration("request-timeout", 30*time.Second,
		"per-request deadline enforced inside the solve pipeline; requests over it get 504 (0 disables)")
	cacheMB    = flag.Int64("cache-mb", 64, "canonical-identity result cache capacity in MiB (0 disables)")
	maxGraphs  = flag.Int("max-graphs", 0, "registered-graph capacity for POST /graphs (0 = default 1024)")
	retryAfter = flag.Duration("retry-after", time.Second,
		"backoff hint set on 503 responses via the Retry-After header (rounded to whole seconds, minimum 1s)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the daemon's lifetime to this file on shutdown (pprof format; feeds default.pgo for PGO builds)")
	opsAddr    = flag.String("ops", "", "operational listen address serving /metrics and /debug/pprof (empty disables; /metrics is always also on the serving port)")
	logSample  = flag.Float64("log-sample", 0, "structured JSON request-log head-sampling rate on stderr: 1 logs every request, 0.01 every hundredth (0 disables)")
	batchShare = flag.Float64("batch-share", 0.5, "share of the admission queue the /batch tier may occupy, so bulk load cannot starve interactive requests (>=1 disables the gate)")
	shedAfter  = flag.Duration("shed-after", 0, "cost-shedding budget: when a request's projected queue time exceeds this, covers degrade to the approximation backend and other requests get 503 + Retry-After (0 disables)")
)

func main() {
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("pathcoverd: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("pathcoverd: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("pathcoverd: %v", err)
			}
			log.Printf("pathcoverd: wrote CPU profile %s", *cpuprofile)
		}()
	}
	s := daemon.New(daemon.Config{
		Shards:         *shards,
		Queue:          *queue,
		MaxBody:        *maxBody,
		Verify:         *verify,
		RequestTimeout: *reqTimeout,
		CacheMB:        *cacheMB,
		MaxGraphs:      *maxGraphs,
		RetryAfter:     *retryAfter,
		LogSample:      *logSample,
		BatchShare:     *batchShare,
		ShedAfter:      *shedAfter,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *opsAddr != "" {
		ops := &http.Server{
			Addr:              *opsAddr,
			Handler:           metrics.OpsHandler(s.ServeMetrics),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("pathcoverd: ops: %v", err)
			}
		}()
		log.Printf("pathcoverd: ops on %s (/metrics, /debug/pprof)", *opsAddr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("pathcoverd: serving on %s (%d shards, queue depth %d)",
		*addr, s.Pool().NumShards(), s.Pool().Stats().QueueDepth)
	select {
	case err := <-errc:
		log.Fatalf("pathcoverd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("pathcoverd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("pathcoverd: shutdown: %v", err)
	}
	s.Close()
}
