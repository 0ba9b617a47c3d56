package pram

import "testing"

// TestSeqCutoverResolution pins the threshold-resolution rules: an
// explicit WithSeqCutover wins, an explicit WithGrain pins the cutover
// to the grain (preserving "dispatch anything at least this large"),
// and the default resolves to the process-wide measured value within the
// calibration clamp.
func TestSeqCutoverResolution(t *testing.T) {
	if got := New(8, WithSeqCutover(777)).SeqCutover(); got != 777 {
		t.Errorf("explicit cutover: got %d want 777", got)
	}
	if got := New(8, WithSeqCutover(-5)).SeqCutover(); got != cutoverDisabled {
		t.Errorf("disabled cutover: got %d want %d", got, cutoverDisabled)
	}
	if got := New(8, WithGrain(128)).SeqCutover(); got != 128 {
		t.Errorf("grain-pinned cutover: got %d want 128", got)
	}
	if got := New(8, WithGrain(128), WithSeqCutover(9)).SeqCutover(); got != 9 {
		t.Errorf("explicit beats grain: got %d want 9", got)
	}
	if got := New(8, WithSeqCutover(9), WithGrain(128)).SeqCutover(); got != 9 {
		t.Errorf("explicit beats grain (either order): got %d want 9", got)
	}
	auto := New(8).SeqCutover()
	if c, ok := cutoverFromEnv(); ok {
		// CI forces the default route through the override; then the
		// auto cutover is the override, not a measurement.
		if auto != c {
			t.Errorf("auto cutover %d, want the %s override %d", auto, cutoverEnv, c)
		}
	} else if auto < 1<<12 || auto > 1<<18 {
		if auto != defaultCutover {
			t.Errorf("auto cutover %d outside clamp and not the fallback default", auto)
		}
	}
}

// TestPreferSequential pins the fused-routing predicate.
func TestPreferSequential(t *testing.T) {
	s := New(8, WithWorkers(4), WithSeqCutover(100))
	if !s.PreferSequential(99) {
		t.Error("n below cutover should prefer the fused body")
	}
	if s.PreferSequential(100) {
		t.Error("n at cutover should take the phase-structured route")
	}
	s.Close()
	if !s.PreferSequential(1 << 20) {
		t.Error("a closed Sim should always prefer the fused body")
	}
	if !New(8, WithWorkers(1), WithSeqCutover(100)).PreferSequential(1 << 20) {
		t.Error("a single-worker Sim should always prefer the fused body")
	}
	if New(8, WithWorkers(4), WithSeqCutover(-1)).PreferSequential(1) {
		t.Error("a disabled cutover must never prefer the fused body on a pooled Sim")
	}
}

// TestCutoverFromEnv pins the PATHCOVER_SEQ_CUTOVER override parsing:
// CI forces the default route both ways through it (0 disables the
// cutover entirely; a huge value fuses everything). Explicit
// WithSeqCutover/WithGrain Sims are unaffected by design — covered by
// TestSeqCutoverResolution above.
func TestCutoverFromEnv(t *testing.T) {
	t.Setenv(cutoverEnv, "0")
	if c, ok := cutoverFromEnv(); !ok || c != cutoverDisabled {
		t.Errorf("env 0: got (%d, %v), want (%d, true)", c, ok, cutoverDisabled)
	}
	t.Setenv(cutoverEnv, "-3")
	if c, ok := cutoverFromEnv(); !ok || c != cutoverDisabled {
		t.Errorf("env -3: got (%d, %v), want (%d, true)", c, ok, cutoverDisabled)
	}
	t.Setenv(cutoverEnv, "1073741824")
	if c, ok := cutoverFromEnv(); !ok || c != 1<<30 {
		t.Errorf("env 2^30: got (%d, %v), want (%d, true)", c, ok, 1<<30)
	}
	t.Setenv(cutoverEnv, "not-a-number")
	if _, ok := cutoverFromEnv(); ok {
		t.Error("garbage env value must fall back to calibration")
	}
}

// TestCutoverChargesUnchanged asserts the executor-level cutover is
// accounting-neutral: the same phase sequence charges the same
// time/work/phases whether it dispatches or runs inline.
func TestCutoverChargesUnchanged(t *testing.T) {
	run := func(s *Sim) Stats {
		defer s.Close()
		for _, n := range []int{1, 5, 1000, 5000, 100000} {
			s.ParallelFor(n, func(int) {})
			s.ParallelForRange(n, func(lo, hi int) {})
			s.ForCostRange(n, 3, func(lo, hi int) {})
			s.Blocks(n, func(b, lo, hi int) {})
		}
		return s.Stats()
	}
	a := run(New(64, WithWorkers(4), WithSeqCutover(-1), WithGrain(32)))
	b := run(New(64, WithWorkers(4), WithSeqCutover(1<<30)))
	c := run(New(64))
	if a != b || b != c {
		t.Errorf("cutover changed accounting: dispatch=%+v fused=%+v default=%+v", a, b, c)
	}
}

// TestCalibrateClamped exercises the measurement itself (cheap; it runs
// once per process anyway).
func TestCalibrateClamped(t *testing.T) {
	c := calibrate()
	if c != defaultCutover && (c < 1<<12 || c > 1<<18) {
		t.Errorf("calibrate() = %d, outside [2^12, 2^18] and not the fallback", c)
	}
}
