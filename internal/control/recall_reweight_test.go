package control

import (
	"math"
	"testing"

	"rago/internal/engine"
	"rago/internal/serve"
	"rago/internal/trace"
)

// TestRecallStaircaseKeepsQualityEntries: the staircase must keep an
// entry that buys recall instead of throughput at equal cost, prune one
// that buys neither, and IndexForFloor must route around entries below
// the recall floor — falling back to the plain answer when the floor
// excludes the whole library.
func TestRecallStaircaseKeepsQualityEntries(t *testing.T) {
	lib := &Library{Entries: staircase([]Entry{
		{Schedule: "D", QPS: 150, Chips: 8, Recall: 0.60},
		{Schedule: "A", QPS: 100, Chips: 4, Recall: 0.55},
		{Schedule: "C", QPS: 80, Chips: 8, Recall: 0.70},
		{Schedule: "B", QPS: 60, Chips: 4, Recall: 0.95},
	})}
	var kept []string
	for _, e := range lib.Entries {
		kept = append(kept, e.Schedule)
	}
	// A leads at 4 chips; B matches its cost but trades QPS for recall, so
	// it survives; C costs more and improves neither axis over {A,B}; D
	// buys throughput with its chips.
	want := []string{"A", "B", "D"}
	if len(kept) != len(want) {
		t.Fatalf("staircase kept %v, want %v", kept, want)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("staircase kept %v, want %v", kept, want)
		}
	}

	if got := lib.IndexForFloor(50, 0); got != 0 {
		t.Errorf("no floor: want cheapest sustaining entry A (0), got %d", got)
	}
	if got := lib.IndexForFloor(50, 0.9); got != 1 {
		t.Errorf("floor 0.9: only B qualifies, want 1, got %d", got)
	}
	// Overload with a floor: the most capable floor-respecting entry, not
	// the most capable overall — the controller degrades capacity before
	// it degrades quality below the floor.
	if got := lib.IndexForFloor(1e9, 0.9); got != 1 {
		t.Errorf("overload with floor 0.9: want B (1), got %d", got)
	}
	// A floor above the library's best recall must not strand the
	// controller: plain IndexFor answer.
	if got := lib.IndexForFloor(50, 0.99); got != 0 {
		t.Errorf("unsatisfiable floor: want plain IndexFor answer 0, got %d", got)
	}

	// Unmeasured libraries (every recall zero) ignore any floor.
	plain := &Library{Entries: staircase([]Entry{
		{Schedule: "x", QPS: 30, Chips: 2},
		{Schedule: "y", QPS: 90, Chips: 6},
	})}
	for _, target := range []float64{1, 50, 1e9} {
		if a, b := plain.IndexForFloor(target, 0.9), plain.IndexFor(target); a != b {
			t.Errorf("unmeasured library: IndexForFloor(%g, 0.9)=%d diverges from IndexFor=%d", target, a, b)
		}
	}
}

func TestConfigMinRecallValidation(t *testing.T) {
	lib := &Library{Entries: []Entry{{Schedule: "a", QPS: 1, Chips: 1}}}
	if _, err := NewController(lib, Config{MinRecall: -0.1}); err == nil {
		t.Error("negative MinRecall should be rejected")
	}
	if _, err := NewController(lib, Config{MinRecall: 1.5}); err == nil {
		t.Error("MinRecall above 1 should be rejected")
	}
	if _, err := NewController(lib, Config{MinRecall: 0.9}); err != nil {
		t.Errorf("MinRecall 0.9 should validate, got %v", err)
	}
}

// TestReweightPreservesEntryIndices: Reweight must re-price in place —
// same entries, same order — because the controller calls it mid-run
// while its current index, recorded events, and any replay of them still
// point into the library.
func TestReweightPreservesEntryIndices(t *testing.T) {
	lib := caseIVLadder(t)
	var order []string
	for _, e := range lib.Entries {
		order = append(order, e.Schedule)
	}
	shapes := []engine.Shape{{PromptTokens: 3072, OutputTokens: 384}}
	lib.Reweight(shapes)
	if len(lib.Entries) != len(order) {
		t.Fatalf("Reweight changed entry count: %d -> %d", len(order), len(lib.Entries))
	}
	for i, e := range lib.Entries {
		if e.Schedule != order[i] {
			t.Fatalf("Reweight reordered entries: %v -> %v", order, lib.Entries)
		}
		if want := e.Plan.ShapeMetrics(shapes).QPS; math.Abs(e.QPS-want) > 1e-9 {
			t.Errorf("entry %d QPS %.3f, want shaped prediction %.3f", i, e.QPS, want)
		}
	}
}

// TestControllerReweightsOnShapeDrift is the staleness regression test: a
// library priced at startup for a short-prompt mix must be re-priced
// online when the trace's shape mix flips halfway to long prompts.
// Before the fix, the library was priced once before Run and every capacity
// estimate stayed priced for the dead morning mix; the assertion that the
// post-run library carries the *late* window's pricing fails on that
// code. The re-weight is hold-down gated and in place, so plan identity
// per index must also survive the run.
func TestControllerReweightsOnShapeDrift(t *testing.T) {
	lib := caseIVLadder(t)
	short := engine.Shape{PromptTokens: 128, OutputTokens: 64}
	long := engine.Shape{PromptTokens: 3072, OutputTokens: 384}

	// Startup pricing on the opening (short) mix, re-pruned the way a
	// library built from a short-shaped search is: the 36-chip entry ties
	// the 20-chip one there and drops out.
	lib.Reweight([]engine.Shape{short})
	lib.Entries = staircase(lib.Entries)
	startupQPS := make([]float64, len(lib.Entries))
	plans := make([]*engine.Plan, len(lib.Entries))
	for i, e := range lib.Entries {
		startupQPS[i] = e.QPS
		plans[i] = e.Plan
	}

	// A flat trace whose shape mix flips halfway: short prompts for the
	// first half, long for the second. Rate sits inside the mid plan's
	// long-shaped capacity so the run completes either way — the bug is
	// in the pricing, not the admission.
	const dur = 90.0
	rate := 0.5 * plans[1].ShapeMetrics([]engine.Shape{long}).QPS
	n := int(rate * dur)
	reqs, err := trace.Poisson(n, rate, 41)
	if err != nil {
		t.Fatal(err)
	}
	flip := reqs[len(reqs)-1].Arrival / 2
	for i := range reqs {
		s := short
		if reqs[i].Arrival >= flip {
			s = long
		}
		reqs[i].PromptTokens, reqs[i].OutputTokens = s.PromptTokens, s.OutputTokens
	}

	ctl, err := NewController(lib, Config{
		SLO:      SLO{TTFT: 2.0},
		Window:   12,
		Interval: 4,
		Headroom: 1.3,
		HoldDown: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Run(serve.Options{Speedup: unpaced}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed != n {
		t.Fatalf("completed %d of %d", res.Report.Completed, n)
	}

	for i, e := range lib.Entries {
		if e.Plan != plans[i] {
			t.Fatalf("entry %d no longer points at its original plan: online re-weighting must not reorder the library", i)
		}
		lateQPS := plans[i].ShapeMetrics([]engine.Shape{long}).QPS
		if math.Abs(startupQPS[i]-lateQPS) < 1e-6 {
			t.Fatalf("entry %d: short and long pricing coincide (%.3f); the trace does not exercise drift", i, startupQPS[i])
		}
		// The last hold-down-gated re-weight reads a window that is all
		// long-shaped (the flip is more than a window before the drain),
		// so the post-run pricing must match the late mix, not startup's.
		if d := math.Abs(e.QPS-lateQPS) / lateQPS; d > 0.02 {
			t.Errorf("entry %d QPS %.3f still ~%.0f%% from the late-mix pricing %.3f (startup was %.3f): library went stale",
				i, e.QPS, 100*d, lateQPS, startupQPS[i])
		}
	}
}
