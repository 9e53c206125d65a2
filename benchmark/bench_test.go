package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestLimits pins BENCHMARK.json to the contract's limits and to
// the driver's workload table.
func TestManifestLimits(t *testing.T) {
	man := testManifest(t)
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(man.Workloads) != len(scenarios) {
		t.Errorf("manifest declares %d workloads, driver defines %d", len(man.Workloads), len(scenarios))
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if _, err := scenarioByName(w.Name); err != nil {
			t.Error(err)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range man.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, d := range append(append([]metricDecl(nil), man.EndToEnd...), man.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range man.PerLayer {
		name(d.Name)
	}
}

// TestQuickSmoke runs every workload at ~1/20 size, untraced and traced, and
// asserts that every name BENCHMARK.json declares is emitted with a finite
// value and no check fails — so drift between the file and the driver shows.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	man := testManifest(t)
	start := time.Now()
	for _, w := range man.Workloads {
		for trace, decls := range [][]metricDecl{man.EndToEnd, man.PerLayer} {
			out, err := execute(config{workload: w.Name, seed: 1, seconds: 1, trace: trace, quick: true}, man)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			for _, f := range out.Failures {
				t.Errorf("%s trace=%d: failed check %s", w.Name, trace, f)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(decls) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.Name, trace, len(out.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := out.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%d: %s missing or not finite (%v)", w.Name, trace, d.Name, v.Value)
				}
				if trace == 0 && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
		}
	}
	t.Logf("quick smoke took %.1fs", time.Since(start).Seconds())
}

// TestQuartilesMatchPython pins the spread statistic to
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 values = %v..%v, want 1..3", q1, q3)
	}
}
