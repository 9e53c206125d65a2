package core

import (
	"reflect"
	"testing"

	"rago/internal/hw"
	"rago/internal/ragschema"
	"rago/internal/retrieval"
)

// testRecallModel is a plausible calibrated recall@10 surface: monotone in
// both probe count and fanout, saturating toward 1 at full scan.
func testRecallModel(t *testing.T) *retrieval.RecallModel {
	t.Helper()
	m, err := retrieval.NewRecallModel(
		[]int{1, 8, 32},
		[]int{1, 4, 8},
		[][]float64{
			{0.30, 0.42, 0.48},
			{0.55, 0.74, 0.82},
			{0.72, 0.90, 0.97},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// shardedOptimizer builds an optimizer whose profiler carries an 8-shard
// retrieval tier and the calibrated recall surface.
func shardedOptimizer(t *testing.T, schema ragschema.Schema, opts Options) *Optimizer {
	t.Helper()
	o, err := NewOptimizer(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.Prof.Shards = 8
	o.Prof.RecallMod = testRecallModel(t)
	return o
}

// TestRetrievalKnobSearchMatchesExhaustive extends the branch-and-bound
// acceptance test to the retrieval knob dimensions: with nprobe and shard
// fanout both searched on a sharded tier with a recall surface, the pruned
// search must return a frontier identical to the noPrune exhaustive
// reference. The plan bound prices the retrieval envelope over every knob
// pair and carries the surface's recall ceiling; any divergence here means
// one of those relaxations stopped being admissible.
func TestRetrievalKnobSearchMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema ragschema.Schema
	}{
		{"caseI", ragschema.CaseI(8e9, 1)},
		{"caseII", ragschema.CaseII(70e9, 1_000_000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(hw.DefaultCluster())
			opts.NormalizeChips = 64
			opts.NProbes = []int{2, 0, 32}
			opts.ShardFanouts = []int{2, 0}

			want := exhaustiveRef(shardedOptimizer(t, tc.schema, opts)).Optimize()
			got := shardedOptimizer(t, tc.schema, opts).Optimize()

			if len(want) == 0 {
				t.Fatal("exhaustive knob frontier is empty")
			}
			if len(got) != len(want) {
				t.Fatalf("frontier size diverged: pruned %d vs exhaustive %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Metrics != want[i].Metrics || !reflect.DeepEqual(got[i].Item, want[i].Item) {
					t.Errorf("point %d diverged:\npruned     %+v %v\nexhaustive %+v %v",
						i, got[i].Item, got[i].Metrics, want[i].Item, want[i].Metrics)
				}
			}

			// The recall axis must actually engage: the frontier has to hold
			// points at distinct measured recall levels — low-recall points
			// survive only by beating high-recall ones on speed, i.e. the
			// search found the recall/latency trade-off the knobs encode.
			recalls := map[float64]bool{}
			for _, p := range want {
				if p.Metrics.Recall <= 0 || p.Metrics.Recall > 1 {
					t.Fatalf("frontier point has unmeasured or invalid recall %v", p.Metrics.Recall)
				}
				recalls[p.Metrics.Recall] = true
			}
			if len(recalls) < 2 {
				t.Errorf("frontier holds %d distinct recall levels, want >= 2 — the knob dimensions never engaged", len(recalls))
			}
		})
	}
}

// TestRetrievalKnobPlanBoundAdmissible checks the bound's defining property
// with the knob dimensions active: no schedule on a plan's frontier may
// beat the plan's optimistic bound on any objective, recall included.
func TestRetrievalKnobPlanBoundAdmissible(t *testing.T) {
	opts := DefaultOptions(hw.DefaultCluster())
	opts.NormalizeChips = 64
	opts.NProbes = []int{2, 0, 32}
	opts.ShardFanouts = []int{2, 0}
	o := shardedOptimizer(t, ragschema.CaseI(8e9, 1), opts)
	plans := o.Plans()
	checked := 0
	for i, plan := range plans {
		if i%5 != 0 { // sample; every plan costs a full sub-search
			continue
		}
		bound, ok := o.planBound(plan)
		front := o.PlanFrontier(plan)
		if !ok {
			if len(front) != 0 {
				t.Fatalf("plan %d: bound says infeasible but frontier has %d points", i, len(front))
			}
			continue
		}
		for _, p := range front {
			m := p.Metrics
			if m.TTFT < bound.TTFT || m.TPOT < bound.TPOT || m.QPS > bound.QPS ||
				m.QPSPerChip > bound.QPSPerChip || m.Recall > bound.Recall {
				t.Fatalf("plan %d: point %v beats admissible bound %v", i, m, bound)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no plans checked")
	}
}

// TestRetrievalKnobsOffIsByteCompatible pins that leaving the knob
// dimensions unset — even with a sharded profiler and a recall surface —
// changes nothing except the measured recall stamped on each point: the
// schedules and the three performance objectives must match a run with no
// recall surface at all, at the tier's base configuration.
func TestRetrievalKnobsOffIsByteCompatible(t *testing.T) {
	opts := DefaultOptions(hw.DefaultCluster())
	opts.NormalizeChips = 64

	plain, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Optimize()

	measured, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	measured.Prof.RecallMod = testRecallModel(t)
	got := measured.Optimize()

	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("frontier size diverged: measured %d vs plain %d", len(got), len(want))
	}
	base := measured.Prof.RecallMod.Recall(0, 0)
	for i := range want {
		gm, wm := got[i].Metrics, want[i].Metrics
		if gm.TTFT != wm.TTFT || gm.TPOT != wm.TPOT || gm.QPS != wm.QPS || gm.QPSPerChip != wm.QPSPerChip {
			t.Errorf("point %d performance diverged: %v vs %v", i, gm, wm)
		}
		if gm.Recall != base {
			t.Errorf("point %d recall = %v, want base-configuration %v", i, gm.Recall, base)
		}
		if !reflect.DeepEqual(got[i].Item, want[i].Item) {
			t.Errorf("point %d schedule diverged", i)
		}
	}
}
