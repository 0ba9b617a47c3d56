package main

import (
	"debug/buildinfo"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics and their units, as
// BENCHMARK.json declares them.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ok_frac", "ratio"},
	{"exact_frac", "ratio"},
	{"approx_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics and their units, as
// BENCHMARK.json declares them. A layer a workload never calls reads 0.
var perLayer = [][2]string{
	{"cluster.route_key_ms", "ms"}, {"cluster.hop_ms", "ms"},
	{"cluster.hedges_per_req", "count"}, {"cluster.hedge_win_frac", "ratio"},
	{"cluster.retries_per_req", "count"}, {"cluster.cpu_ms_per_req", "ms"},
	{"daemon.handler_ms", "ms"}, {"daemon.decode_ms", "ms"}, {"daemon.encode_ms", "ms"},
	{"daemon.self_ms", "ms"}, {"daemon.transport_ms", "ms"},
	{"daemon.req_kb", "KB"}, {"daemon.resp_kb", "KB"}, {"daemon.cpu_ms_per_req", "ms"},
	{"cotree.parse_ms", "ms"}, {"cotree.parse_mb_s", "MB/s"},
	{"cograph.accept_ms", "ms"}, {"cograph.reject_ms", "ms"},
	{"cograph.ns_per_edge", "ns"}, {"cograph.alloc_kb", "KB"},
	{"canon.canonicalize_ms", "ms"},
	{"covercache.hit_frac", "ratio"}, {"covercache.hit_ms", "ms"},
	{"pool.solve_ms", "ms"}, {"pool.overhead_ms", "ms"}, {"pool.wait_ms", "ms"},
	{"core.s1_binarize_ms", "ms"}, {"core.s2_leftist_ms", "ms"},
	{"core.s3a_tour_ms", "ms"}, {"core.s3b_contract_ms", "ms"}, {"core.s3c_reduce_ms", "ms"},
	{"core.s4_brackets_ms", "ms"}, {"core.s5_pseudo_ms", "ms"}, {"core.s6_fix_ms", "ms"},
	{"core.s7_bypass_ms", "ms"}, {"core.s8_extract_ms", "ms"},
	{"core.simtime", "count"}, {"core.simwork_per_v", "count"},
	{"pram.arena_kb", "KB"}, {"pram.seq_cutover", "count"},
	{"backend.tree_ms", "ms"}, {"backend.approx_ms", "ms"},
	{"runtime.alloc_kb_per_req", "KB"}, {"runtime.gc_cpu_frac", "ratio"},
	{"host.probe_ms", "ms"},
}

// withUnits renders values under the names of a catalog; names without
// a value read 0.
func withUnits(catalog [][2]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(catalog))
	for _, c := range catalog {
		out[c[0]] = metric{values[c[0]], c[1]}
	}
	return out
}

// runRecord is what a run writes beside its result to attribute noise:
// what was built, on what host, and how many samples stand behind each
// reported percentile.
type runRecord struct {
	Workload      string                       `json:"workload"`
	Seed          uint64                       `json:"seed"`
	Seconds       int                          `json:"seconds"`
	Trace         bool                         `json:"trace"`
	Commit        string                       `json:"commit"`
	GoVersion     string                       `json:"go_version"`
	Builds        map[string]map[string]string `json:"builds"`
	NumCPU        int                          `json:"nproc"`
	GOMAXPROCS    int                          `json:"gomaxprocs"`
	PoolShards    int                          `json:"pool_shards,omitempty"`
	SeqCutover    int                          `json:"seq_cutover"`
	HostProbeMS   float64                      `json:"host_probe_ms"`
	SetupS        []float64                    `json:"setup_s"`
	Requests      int                          `json:"requests"`
	PhaseS        float64                      `json:"phase_s"`
	TailPermille  int                          `json:"tail_permille"`
	TailBeyond    int                          `json:"tail_samples_beyond"`
	QualityPrefix int                          `json:"quality_prefix"`
	WriteErrors   int                          `json:"log_write_errors"`
	Coverage      float64                      `json:"handler_coverage,omitempty"`
	Metrics       map[string]metric            `json:"metrics"`
}

// buildStamps reads each binary's embedded build settings (what `go
// version -m` prints): the PGO profile, VCS revision and target flags.
func buildStamps(binDir string, names ...string) (map[string]map[string]string, string) {
	out := map[string]map[string]string{}
	commit := "unknown"
	for _, n := range names {
		bi, err := buildinfo.ReadFile(filepath.Join(binDir, n))
		if err != nil {
			out[n] = map[string]string{"error": err.Error()}
			continue
		}
		s := map[string]string{"go": bi.GoVersion}
		for _, kv := range bi.Settings {
			s[kv.Key] = kv.Value
		}
		if rev := s["vcs.revision"]; rev != "" {
			commit = rev
			if s["vcs.modified"] == "true" {
				commit += "+modified"
			}
		}
		out[n] = s
	}
	return out, commit
}

// write saves the record as JSON.
func (r *runRecord) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// probeSink keeps the probe's result live.
var probeSink uint32

// hostProbe times a fixed single-threaded CPU and memory workload (a
// xorshift walk over 1 MiB) and returns the median of five runs in ms.
// It does not touch the system under test: it tells host drift apart
// from code changes.
func hostProbe() float64 {
	buf := make([]uint32, 1<<18)
	runs := make([]float64, 5)
	for r := range runs {
		t := time.Now()
		x := uint32(r + 1)
		for pass := 0; pass < 16; pass++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				buf[i] += x
			}
		}
		runs[r] = ms(time.Since(t))
		probeSink += buf[x%uint32(len(buf))]
	}
	return median(runs)
}

// hostInfo fills the host fields of a record.
func (r *runRecord) hostInfo() {
	r.GoVersion = runtime.Version()
	r.NumCPU = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
}
