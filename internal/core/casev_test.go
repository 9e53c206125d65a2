package core

import (
	"testing"

	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/ragschema"
)

// TestCaseVOptimize runs the full schedule search over the multi-source
// fan-out pipeline — a stage graph, not a chain — proving new workload
// shapes are data through the optimizer, not new code: placement
// enumeration, the per-plan batch search, and the engine-backed assembly
// all operate on the graph unchanged.
func TestCaseVOptimize(t *testing.T) {
	o := newOpt(t, ragschema.CaseV(8e9, 2), hw.DefaultCluster(), 64)
	front := o.Optimize()
	if len(front) < 3 {
		t.Fatalf("fan-out frontier too small: %d", len(front))
	}
	best, ok := perf.MaxQPSPerChip(front)
	if !ok {
		t.Fatal("empty frontier")
	}
	// Two sources double the per-request retrieval work but run on
	// parallel tiers, so the ceiling stays at the single-tier retrieval
	// bound (~15 QPS/chip on the 64-chip pool, like Case I).
	if best.Metrics.QPSPerChip < 10 || best.Metrics.QPSPerChip > 16 {
		t.Errorf("Case V max QPS/chip = %.2f, want ~15 (per-source retrieval bound)", best.Metrics.QPSPerChip)
	}
	for _, p := range front {
		if err := p.Item.Validate(o.Pipe); err != nil {
			t.Fatalf("frontier schedule invalid: %v", err)
		}
		if m, ok := compiledMetrics(o, p.Item); !ok || m != p.Metrics {
			t.Fatalf("frontier point not Evaluate-consistent: %v vs %v", p.Metrics, m)
		}
	}
}
