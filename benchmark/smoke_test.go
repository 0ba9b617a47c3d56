package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary act as a library set-up child.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(setupChildEnv); ok {
		os.Exit(setupChildMain(spec))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end at tiny size, untraced and
// traced, against pathcoverd and pathcover-gateway built from this
// checkout.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serving binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/pathcoverd", "./cmd/pathcover-gateway")
	build.Dir = ".."
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 5, seconds: 1, trace: trace, bin: bin, out: out, tiny: true}
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			catalog := endToEnd
			if trace {
				catalog = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(catalog) {
				t.Errorf("%s trace=%v: %+v", w.name, trace, res)
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac = %v", w.name, res.Metrics["ok_frac"].Value)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, w.name+"-seed5-tracetrue", "spans.jsonl")); err != nil {
					t.Errorf("%s: no spans written: %v", w.name, err)
				}
			}
		}
	}
}
