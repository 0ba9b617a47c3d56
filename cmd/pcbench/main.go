// Command pcbench regenerates the paper's experiment tables E1–E9:
// every theorem/lemma of the paper mapped to a measurable claim on the
// PRAM cost simulator plus wall-clock comparisons. It also diffs and
// gates two -json reports on their simulated counters, and drives a
// running server with verified HTTP load (-attack).
//
// Usage:
//
//	pcbench                        # run everything
//	pcbench -exp e4                # one experiment
//	pcbench -exp e4 -max 20        # larger sweep (2^20)
//	pcbench -json BENCH_PR3.json   # also dump machine-readable results
//	pcbench -compare old.json new.json
//	                               # diff two -json reports: every numeric
//	                               # column becomes old -> new (ratio)
//	pcbench -compare -gate 1 old.json new.json
//	                               # CI regression gate: exit 1 when any
//	                               # simtime/simwork cell drifts > 1%
//	pcbench -attack http://host:8080
//	                               # verified HTTP load against one
//	                               # pathcoverd or gateway (see attack.go)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pathcover"
	"pathcover/internal/baseline"
	"pathcover/internal/core"
	"pathcover/internal/lowerbound"
	"pathcover/internal/par"
	"pathcover/internal/pram"
	"pathcover/internal/workload"
)

var (
	exp       = flag.String("exp", "all", "experiment to run: e1..e9 | all")
	maxLog    = flag.Int("max", 18, "largest input size as a power of two")
	seed      = flag.Uint64("seed", 1, "random seed")
	jsonPath  = flag.String("json", "", "write machine-readable results to this file")
	compare   = flag.Bool("compare", false, "compare two -json reports (pcbench -compare old.json new.json) instead of running experiments")
	gate      = flag.Float64("gate", 0, "with -compare: fail (exit 1) when any simulated simtime/simwork cell drifts by more than this percentage")
	walltrace = flag.Bool("walltrace", false, "also emit the per-step wall-clock trace table (and include it in -json, so -compare diffs per-step deltas)")
)

// jsonExperiment mirrors one rendered table; the -json dump gives future
// PRs a perf trajectory to diff against.
type jsonExperiment struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type jsonReport struct {
	Date        string           `json:"date"`
	Commit      string           `json:"commit"`
	GoVersion   string           `json:"go_version"`
	NumCPU      int              `json:"num_cpu"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	MaxLog      int              `json:"max_log"`
	Seed        uint64           `json:"seed"`
	Experiments []jsonExperiment `json:"experiments"`
}

var report = jsonReport{
	Date:       time.Now().UTC().Format(time.RFC3339),
	GoVersion:  runtime.Version(),
	NumCPU:     runtime.NumCPU(),
	GOMAXPROCS: runtime.GOMAXPROCS(0),
}

// commitHash identifies the measured tree: the VCS revision stamped into
// the binary when available (built/installed binaries), the working
// tree's HEAD otherwise (go run), "unknown" failing both.
func commitHash() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pcbench: -compare needs exactly two report files: pcbench -compare old.json new.json")
			os.Exit(1)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	report.MaxLog = *maxLog
	report.Seed = *seed
	if *attackURL != "" {
		runAttack(*attackURL)
	} else {
		run := func(name string, f func()) {
			if *exp == "all" || *exp == name {
				f()
			}
		}
		run("e1", e1)
		run("e2", e2)
		run("e3", e3)
		run("e4", e4)
		run("e5", e5)
		run("e6", e6)
		run("e7", e7)
		run("e8", e8)
		run("e9", e9)
		if *walltrace || *exp == "wt" {
			wt()
		}
		if !strings.HasPrefix(*exp, "e") && *exp != "all" && *exp != "wt" {
			fmt.Fprintf(os.Stderr, "pcbench: unknown experiment %q\n", *exp)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		report.Commit = commitHash() // resolved only when a report is written
		blob, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pcbench: wrote %s\n", *jsonPath)
	}
}

func sizes() []int {
	var out []int
	for lg := 10; lg <= *maxLog; lg += 2 {
		out = append(out, 1<<lg)
	}
	return out
}

func lg2(n int) float64 { return math.Log2(float64(n)) }

func header(title string, cols ...string) {
	fmt.Printf("\n### %s\n\n", title)
	fmt.Println("| " + strings.Join(cols, " | ") + " |")
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Println("| " + strings.Join(sep, " | ") + " |")
	report.Experiments = append(report.Experiments, jsonExperiment{Title: title, Columns: cols})
}

func row(cells ...string) {
	fmt.Println("| " + strings.Join(cells, " | ") + " |")
	if n := len(report.Experiments); n > 0 {
		e := &report.Experiments[n-1]
		e.Rows = append(e.Rows, cells)
	}
}

func e1() {
	header("E1 — Theorem 2.2: OR reduction gadget (Fig. 2)",
		"n bits", "k ones", "paths", "expected n-k+2", "y-path len", "OR", "simtime", "simtime/log n")
	for _, n := range sizes() {
		rng := rand.New(rand.NewPCG(*seed, uint64(n)))
		bits := make([]bool, n)
		k := 0
		for i := range bits {
			if rng.IntN(n) < 3 {
				bits[i] = true
				k++
			}
		}
		inst := lowerbound.Build(bits)
		s := pram.New(pram.ProcsFor(n))
		cov, err := core.ParallelCover(s, inst.Tree, core.Options{Seed: *seed})
		if err != nil {
			panic(err)
		}
		or, err := inst.Decode(cov.Paths)
		if err != nil {
			panic(err)
		}
		ylen := 0
		for _, p := range cov.Paths {
			for _, v := range p {
				if v == inst.Y {
					ylen = len(p)
				}
			}
		}
		row(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(len(cov.Paths)),
			fmt.Sprint(inst.ExpectedPaths(k)), fmt.Sprint(ylen), fmt.Sprint(or),
			fmt.Sprint(s.Time()), fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)))
	}
}

func e2() {
	header("E2 — Lemma 2.3: sequential cover is O(n)",
		"shape", "n", "wall ms", "ns/vertex")
	for _, shape := range []workload.Shape{workload.Mixed, workload.Caterpillar} {
		for _, n := range sizes() {
			t := workload.Random(*seed, n, shape)
			s := pram.NewSerial()
			bin := t.Binarize(s)
			L := bin.MakeLeftist(s, 1)
			reps := max(1, 1<<22/n)
			start := time.Now()
			for r := 0; r < reps; r++ {
				baseline.SequentialCover(bin, L)
			}
			el := time.Since(start) / time.Duration(reps)
			row(shape.String(), fmt.Sprint(n),
				fmt.Sprintf("%.2f", float64(el.Microseconds())/1000),
				fmt.Sprintf("%.1f", float64(el.Nanoseconds())/float64(n)))
		}
	}
}

func e3() {
	header("E3 — Lemma 2.4: p(u) by tree contraction",
		"n", "procs", "simtime", "simtime/log n", "simwork/n")
	for _, n := range sizes() {
		t := workload.Random(*seed, n, workload.Mixed)
		setup := pram.NewSerial()
		bin := t.Binarize(setup)
		L := bin.MakeLeftist(setup, 1)
		s := pram.New(pram.ProcsFor(n))
		tour := par.TourBinary(s, bin.BinTree, *seed)
		s.Reset()
		core.ComputeP(s, bin, L, tour)
		row(fmt.Sprint(n), fmt.Sprint(s.Procs()), fmt.Sprint(s.Time()),
			fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
			fmt.Sprintf("%.1f", float64(s.Work())/float64(n)))
	}
}

func e4() {
	header("E4 — Theorem 5.3: optimal parallel cover, time O(log n), work O(n)",
		"shape", "n", "height", "procs", "simtime", "simtime/log n", "simwork/n", "paths")
	for _, shape := range []workload.Shape{workload.Balanced, workload.Caterpillar} {
		for _, n := range sizes() {
			t := workload.Random(*seed, n, shape)
			setup := pram.NewSerial()
			bin := t.Binarize(setup)
			h := baseline.Height(bin)
			s := pram.New(pram.ProcsFor(n))
			cov, err := core.ParallelCover(s, t, core.Options{Seed: *seed})
			if err != nil {
				panic(err)
			}
			row(shape.String(), fmt.Sprint(n), fmt.Sprint(h), fmt.Sprint(s.Procs()),
				fmt.Sprint(s.Time()),
				fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
				fmt.Sprintf("%.1f", float64(s.Work())/float64(n)),
				fmt.Sprint(cov.NumPaths))
		}
	}
}

func e5() {
	header("E5 — naive O(height·log n) parallelization vs the bracket algorithm",
		"shape", "n", "naive simtime", "optimal simtime", "naive/optimal")
	for _, shape := range []workload.Shape{workload.Balanced, workload.Caterpillar} {
		for _, n := range sizes() {
			t := workload.Random(*seed, n, shape)
			setup := pram.NewSerial()
			bin := t.Binarize(setup)
			L := bin.MakeLeftist(setup, 1)
			sn := pram.New(pram.ProcsFor(n))
			baseline.NaiveCover(sn, bin, L)
			so := pram.New(pram.ProcsFor(n))
			if _, err := core.ParallelCover(so, t, core.Options{Seed: *seed}); err != nil {
				panic(err)
			}
			row(shape.String(), fmt.Sprint(n), fmt.Sprint(sn.Time()), fmt.Sprint(so.Time()),
				fmt.Sprintf("%.2fx", float64(sn.Time())/float64(so.Time())))
		}
	}
}

func e6() {
	n := 1 << *maxLog
	t := workload.Random(*seed, n, workload.Mixed)
	setup := pram.NewSerial()
	bin := t.Binarize(setup)
	L := bin.MakeLeftist(setup, 1)
	timeIt := func(f func()) float64 {
		best := math.Inf(1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			f()
			if el := time.Since(start).Seconds() * 1000; el < best {
				best = el
			}
		}
		return best
	}
	seqMS := timeIt(func() { baseline.SequentialCover(bin, L) })
	header(fmt.Sprintf("E6 — wall-clock speedup, n=%d, host CPUs=%d", n, runtime.NumCPU()),
		"configuration", "wall ms", "vs sequential")
	row("sequential (Lemma 2.3)", fmt.Sprintf("%.1f", seqMS), "1.00x")
	for _, workers := range []int{1, 2, 4, 8, 16, runtime.NumCPU()} {
		if workers > runtime.NumCPU() {
			continue
		}
		w := workers
		ms := timeIt(func() {
			s := pram.New(pram.ProcsFor(n), pram.WithWorkers(w))
			if _, err := core.ParallelCover(s, t, core.Options{Seed: *seed}); err != nil {
				panic(err)
			}
		})
		row(fmt.Sprintf("parallel, %d workers", w), fmt.Sprintf("%.1f", ms),
			fmt.Sprintf("%.2fx", seqMS/ms))
	}
	// Steady-state serving path: one Solver amortising its worker pool and
	// scratch arena across calls (PR 1's executor rewrite).
	g := pathcover.Random(*seed, n, pathcover.Mixed)
	sv := pathcover.NewSolver(pathcover.WithSeed(*seed))
	defer sv.Close()
	if _, err := sv.MinimumPathCover(g); err != nil { // warm the arena
		panic(err)
	}
	ms := timeIt(func() {
		if _, err := sv.MinimumPathCover(g); err != nil {
			panic(err)
		}
	})
	row("parallel, reused Solver", fmt.Sprintf("%.1f", ms), fmt.Sprintf("%.2fx", seqMS/ms))
}

func e7() {
	header("E7 — Lemma 5.1 primitives",
		"primitive", "n", "simtime", "simtime/log n", "simwork/n")
	for _, n := range sizes() {
		rng := rand.New(rand.NewPCG(*seed, uint64(n)))
		data := make([]int, n)
		for i := range data {
			data[i] = rng.IntN(100)
		}
		s := pram.New(pram.ProcsFor(n))
		par.ScanInt(s, data)
		row("prefix sums", fmt.Sprint(n), fmt.Sprint(s.Time()),
			fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
			fmt.Sprintf("%.1f", float64(s.Work())/float64(n)))
	}
	next := func(n int) []int {
		nx := make([]int, n)
		for i := 0; i < n-1; i++ {
			nx[i] = i + 1
		}
		nx[n-1] = -1
		return nx
	}
	for _, n := range sizes() {
		s := pram.New(pram.ProcsFor(n))
		par.RankOpt(s, next(n), *seed)
		row("list ranking (work-opt)", fmt.Sprint(n), fmt.Sprint(s.Time()),
			fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
			fmt.Sprintf("%.1f", float64(s.Work())/float64(n)))
	}
	for _, n := range sizes() {
		s := pram.New(pram.ProcsFor(n))
		par.Rank(s, next(n))
		row("list ranking (Wyllie)", fmt.Sprint(n), fmt.Sprint(s.Time()),
			fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
			fmt.Sprintf("%.1f", float64(s.Work())/float64(n)))
	}
	for _, n := range sizes() {
		rng := rand.New(rand.NewPCG(*seed, uint64(n)))
		open := make([]bool, n)
		for i := range open {
			open[i] = rng.IntN(2) == 0
		}
		s := pram.New(pram.ProcsFor(n))
		par.MatchBrackets(s, open)
		row("bracket matching", fmt.Sprint(n), fmt.Sprint(s.Time()),
			fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
			fmt.Sprintf("%.1f", float64(s.Work())/float64(n)))
	}
}

func e8() {
	header("E8 — Lemma 5.2: Euler tour numberings",
		"n", "simtime", "simtime/log n", "simwork/n")
	for _, n := range sizes() {
		t := workload.Random(*seed, n, workload.Mixed)
		setup := pram.NewSerial()
		bin := t.Binarize(setup)
		s := pram.New(pram.ProcsFor(n))
		tour := par.TourBinary(s, bin.BinTree, *seed)
		tour.SubtreeCounts(s, bin.BinTree)
		row(fmt.Sprint(n), fmt.Sprint(s.Time()),
			fmt.Sprintf("%.1f", float64(s.Time())/lg2(n)),
			fmt.Sprintf("%.1f", float64(s.Work())/float64(n)))
	}
}

func e9() {
	n := 1 << *maxLog
	t := workload.Random(*seed, n, workload.Caterpillar)
	s := pram.New(pram.ProcsFor(n))
	if _, err := core.ParallelCover(s, t, core.Options{Seed: *seed}); err != nil {
		panic(err)
	}
	setup := pram.NewSerial()
	bin := t.Binarize(setup)
	L := bin.MakeLeftist(setup, 1)
	sn := pram.New(pram.ProcsFor(n))
	baseline.NaiveCover(sn, bin, L)
	header(fmt.Sprintf("E9 — reported complexities vs this implementation (caterpillar, n=%d)", n),
		"algorithm", "model", "time bound", "processors", "measured simtime")
	row("Adhar–Peng 1990", "CRCW", "O(log² n)", "O(n²)", "— (superseded; see naive emulation)")
	row("Lin et al. 1994 [18] (report)", "EREW", "O(log² n)", "n/log n", "—")
	row("naive bottom-up (§2)", "EREW", "O(height·log n)", "n/log n", fmt.Sprint(sn.Time()))
	row("this paper / this repo", "EREW", "O(log n)", "n/log n", fmt.Sprint(s.Time()))
	fmt.Printf("\nheight of this caterpillar cotree: %d; log2 n = %.0f\n",
		baseline.Height(bin), lg2(n))
}

// wt emits the per-step trace of the full pipeline on both axes: the
// simulated StepTrace counters and the wall clock of each step, so hot
// steps are attributable in BENCH snapshots. The rows key on (shape, n,
// step), which lets -compare show per-step deltas between two reports.
func wt() {
	n := 1 << *maxLog
	header(fmt.Sprintf("WT — per-step trace, n=%d (simulated + wall clock)", n),
		"shape", "n", "step", "simtime", "simwork", "wall ms")
	for _, shape := range []workload.Shape{workload.Balanced, workload.Caterpillar} {
		t := workload.Random(*seed, n, shape)
		trace := &core.StepTrace{}
		s := pram.New(pram.ProcsFor(n))
		if _, err := core.ParallelCover(s, t, core.Options{Seed: *seed, Trace: trace}); err != nil {
			panic(err)
		}
		for i := range trace.Names {
			row(shape.String(), fmt.Sprint(n), trace.Names[i],
				fmt.Sprint(trace.Time[i]), fmt.Sprint(trace.Work[i]),
				fmt.Sprintf("%.3f", float64(trace.Wall[i].Nanoseconds())/1e6))
		}
	}
}

// runCompare renders the speedup table between two -json reports: for
// every experiment present in both, rows are matched on their
// non-numeric key cells and each numeric column is shown as
// "old -> new (ratio)", ratio = old/new (so >1 means the new report is
// better on time-like columns). This replaces the hand-assembled
// before/after tables of the README.
func runCompare(oldPath, newPath string) error {
	oldBlob, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newBlob, err := os.ReadFile(newPath)
	if err != nil {
		return err
	}
	oldRep, err := loadReport(oldBlob, oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newBlob, newPath)
	if err != nil {
		return err
	}
	if len(oldRep.Experiments) == 0 && len(newRep.Experiments) == 0 {
		// Not pcbench reports: try the BENCH_PRn.json snapshot format.
		return compareBench(oldPath, newPath, oldBlob, newBlob)
	}
	fmt.Printf("comparing %s (%s, %s) -> %s (%s, %s)\n",
		oldPath, oldRep.Commit, oldRep.Date, newPath, newRep.Commit, newRep.Date)
	if oldRep.NumCPU != newRep.NumCPU || oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Printf("WARNING: host mismatch: cpus %d vs %d, GOMAXPROCS %d vs %d\n",
			oldRep.NumCPU, newRep.NumCPU, oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}
	matched := 0
	g := gateState{threshold: *gate}
	for _, ne := range newRep.Experiments {
		oe := findExperiment(oldRep, ne.Title)
		if oe == nil || !columnsEqual(oe.Columns, ne.Columns) {
			continue
		}
		matched++
		fmt.Printf("\n### %s\n\n", ne.Title)
		fmt.Println("| " + strings.Join(ne.Columns, " | ") + " |")
		sep := make([]string, len(ne.Columns))
		for i := range sep {
			sep[i] = "---"
		}
		fmt.Println("| " + strings.Join(sep, " | ") + " |")
		oldRows := make(map[string][]string, len(oe.Rows))
		for _, r := range oe.Rows {
			oldRows[rowKey(r)] = r
		}
		for _, nr := range ne.Rows {
			or, ok := oldRows[rowKey(nr)]
			if !ok || len(or) != len(nr) {
				fmt.Println("| " + strings.Join(nr, " | ") + " | (new row)")
				continue
			}
			cells := make([]string, len(nr))
			for i := range nr {
				ov, oerr := parseCell(or[i])
				nv, nerr := parseCell(nr[i])
				g.check(ne.Title, rowKey(nr), ne.Columns[i], or[i], nr[i], ov, nv, oerr == nil && nerr == nil)
				switch {
				case oerr != nil || nerr != nil || or[i] == nr[i]:
					cells[i] = nr[i]
				case nv == 0 || ov == 0:
					cells[i] = fmt.Sprintf("%s -> %s", or[i], nr[i])
				default:
					cells[i] = fmt.Sprintf("%s -> %s (%.2fx)", or[i], nr[i], ov/nv)
				}
			}
			fmt.Println("| " + strings.Join(cells, " | ") + " |")
		}
	}
	if matched == 0 {
		return fmt.Errorf("no experiments in common between %s and %s", oldPath, newPath)
	}
	return g.verdict()
}

// gateState implements the CI bench-regression gate: over the matched
// rows of a -compare run, every *simulated* cell — a column whose name
// mentions simtime or simwork, which the cost simulator makes
// deterministic and therefore flake-free — must stay within the drift
// threshold. Wall-clock columns are never gated.
type gateState struct {
	threshold  float64 // percent; 0 disables the gate
	checked    int
	maxDrift   float64
	violations []string
}

// gateable reports whether a column holds simulated counters.
func gateable(col string) bool {
	c := strings.ToLower(col)
	return strings.Contains(c, "simtime") || strings.Contains(c, "simwork")
}

func (g *gateState) check(title, key, col, oldCell, newCell string, ov, nv float64, numeric bool) {
	if g.threshold <= 0 || !gateable(col) {
		return
	}
	if !numeric {
		if oldCell != newCell {
			g.violations = append(g.violations,
				fmt.Sprintf("%s [%s] %s: %q -> %q (non-numeric change)", title, keyLabel(key), col, oldCell, newCell))
		}
		return
	}
	g.checked++
	var drift float64
	switch {
	case ov == nv:
		drift = 0
	case ov == 0:
		drift = 100 // appeared from zero: always a violation at any threshold
	default:
		drift = math.Abs(nv-ov) / math.Abs(ov) * 100
	}
	if drift > g.maxDrift {
		g.maxDrift = drift
	}
	if drift > g.threshold {
		g.violations = append(g.violations,
			fmt.Sprintf("%s [%s] %s: %s -> %s (%+.1f%%)", title, keyLabel(key), col, oldCell, newCell, drift))
	}
}

func (g *gateState) verdict() error {
	if g.threshold <= 0 {
		return nil
	}
	if g.checked == 0 && len(g.violations) == 0 {
		// Fail closed: a gate that matched no simulated cells (renamed
		// experiments, changed columns, re-keyed rows) is not a passing
		// gate — it is a gate that has been disconnected.
		return fmt.Errorf("bench-regression gate: no simulated cells matched between the reports; " +
			"titles/columns/row keys changed — re-baseline deliberately instead of letting the gate pass empty")
	}
	if len(g.violations) > 0 {
		fmt.Printf("\nGATE FAILED (> %.0f%% drift on simulated counters):\n", g.threshold)
		for _, v := range g.violations {
			fmt.Printf("  %s\n", v)
		}
		return fmt.Errorf("bench-regression gate: %d of %d simulated cells drifted beyond %.0f%%",
			len(g.violations), g.checked, g.threshold)
	}
	fmt.Printf("\ngate OK: %d simulated cells within %.0f%% (max drift %.2f%%)\n",
		g.checked, g.threshold, g.maxDrift)
	return nil
}

// keyLabel renders a row key (NUL-joined identity cells) readably.
func keyLabel(key string) string { return strings.ReplaceAll(key, "\x00", "/") }

func loadReport(blob []byte, path string) (*jsonReport, error) {
	var rep jsonReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func findExperiment(rep *jsonReport, title string) *jsonExperiment {
	for i := range rep.Experiments {
		if rep.Experiments[i].Title == title {
			return &rep.Experiments[i]
		}
	}
	return nil
}

func columnsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowKey joins the non-numeric cells of a row — the shape/size/label
// columns that identify it across reports.
func rowKey(row []string) string {
	var key []string
	for _, c := range row {
		if _, err := parseCell(c); err != nil {
			key = append(key, c)
		} else if n, err := strconv.Atoi(c); err == nil && isSizeLike(n) {
			// Integer size columns (n, procs, k, height) are identity, not
			// measurement: match on them too.
			key = append(key, c)
		}
	}
	return strings.Join(key, "\x00")
}

// isSizeLike treats round or structural integers as identity columns.
// Measurements (simtime, wall ms) are floats or large irregular ints;
// sizes are the sweep's powers of two and small structural counts.
func isSizeLike(n int) bool {
	return n >= 0 && (n < 64 || n&(n-1) == 0)
}

// parseCell parses a numeric table cell, tolerating the "1.23x" ratio
// suffix.
func parseCell(c string) (float64, error) {
	c = strings.TrimSuffix(strings.TrimSpace(c), "x")
	return strconv.ParseFloat(c, 64)
}

// The BENCH_PRn.json format: the per-PR wall-clock snapshots recorded at
// the repo root. -compare accepts these too, diffing each benchmark's
// "after" point by name, which generates the README's speedup table
// instead of assembling it by hand.
type benchPoint struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type benchEntry struct {
	Name    string      `json:"name"`
	Before  *benchPoint `json:"before,omitempty"`
	After   *benchPoint `json:"after,omitempty"`
	Speedup float64     `json:"speedup,omitempty"`
}

type benchReport struct {
	PR         int          `json:"pr"`
	Commit     string       `json:"commit,omitempty"`
	Date       string       `json:"date,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// compareBench diffs two BENCH_PRn.json snapshots on their "after"
// points.
func compareBench(oldPath, newPath string, oldBlob, newBlob []byte) error {
	var oldRep, newRep benchReport
	if err := json.Unmarshal(oldBlob, &oldRep); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	if err := json.Unmarshal(newBlob, &newRep); err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}
	oldBy := make(map[string]*benchPoint, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		if b.After != nil {
			oldBy[b.Name] = b.After
		}
	}
	fmt.Printf("comparing PR %d (%s) -> PR %d (%s), wall clock and bytes per op\n\n",
		oldRep.PR, oldPath, newRep.PR, newPath)
	fmt.Println("| benchmark | ns/op | B/op | allocs/op |")
	fmt.Println("| --- | --- | --- | --- |")
	matched := 0
	for _, b := range newRep.Benchmarks {
		o := oldBy[b.Name]
		if o == nil || b.After == nil {
			continue
		}
		matched++
		fmt.Printf("| %s | %s | %s | %s |\n", b.Name,
			ratioCell(o.NsPerOp, b.After.NsPerOp),
			ratioCell(o.BytesPerOp, b.After.BytesPerOp),
			ratioCell(o.AllocsPerOp, b.After.AllocsPerOp))
	}
	if matched == 0 {
		return fmt.Errorf("no benchmarks in common between %s and %s", oldPath, newPath)
	}
	return nil
}

func ratioCell(old, new float64) string {
	if old <= 0 || new <= 0 {
		return fmt.Sprintf("%.3g -> %.3g", old, new)
	}
	return fmt.Sprintf("%.3g -> %.3g (%.2fx)", old, new, old/new)
}
