package core

import (
	"reflect"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/ragschema"
)

// formationShapes is a heavy-tailed sample: mostly short prompts plus a
// long tail, the regime where formation policy and chunking matter.
func formationShapes() []engine.Shape {
	var out []engine.Shape
	for i := 0; i < 28; i++ {
		out = append(out, engine.Shape{PromptTokens: 200 + (i*41)%320, OutputTokens: 192 + (i*29)%128})
	}
	for i := 0; i < 4; i++ {
		out = append(out, engine.Shape{PromptTokens: 2200 + i*400, OutputTokens: 256})
	}
	return out
}

// TestFormationSearchMatchesExhaustive extends the branch-and-bound
// acceptance test to the formation dimensions: with per-request shapes,
// a policy sweep, and chunk quanta all active, the pruned search must
// return a frontier identical to the noPrune exhaustive reference. The
// plan-level bounds are relaxed for shaped costing (min-padded envelope,
// per-quantum chunk floors, min-context decode envelope); any divergence
// here means a relaxation stopped being admissible.
func TestFormationSearchMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema ragschema.Schema
	}{
		{"caseI", ragschema.CaseI(8e9, 1)},
		{"caseV", ragschema.CaseV(8e9, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(hw.DefaultCluster())
			opts.NormalizeChips = 64
			opts.Shapes = formationShapes()
			opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
			opts.ChunkQuanta = []int{0, 256}

			exhaustive, err := NewOptimizer(tc.schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := exhaustiveRef(exhaustive).Optimize()

			pruned, err := NewOptimizer(tc.schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := pruned.Optimize()

			if len(want) == 0 {
				t.Fatal("exhaustive formation frontier is empty")
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

			// The dimensions must actually engage: on a heavy-tailed mix the
			// frontier should hold at least one non-FIFO or chunked point
			// (bucketed formation weakly dominates FIFO per schedule here).
			nonDefault := false
			for _, p := range want {
				if p.Item.FormPolicy != engine.PolicyFIFO || p.Item.ChunkQuantum > 0 {
					nonDefault = true
					break
				}
			}
			if !nonDefault {
				t.Error("no frontier point uses a formation policy or chunking — the dimensions never engaged")
			}
		})
	}
}

// TestFormationSearchShapedScoring: with shapes but the default
// (FIFO-only) formation dimensions, the search scores candidates by
// shape-weighted metrics — the frontier QPS must sit below the
// constant-shape frontier's on the same heavy-tailed sample.
func TestFormationSearchShapedScoring(t *testing.T) {
	opts := DefaultOptions(hw.DefaultCluster())
	opts.NormalizeChips = 64
	plain, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	plainFront := plain.Optimize()

	opts.Shapes = formationShapes()
	shaped, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	shapedFront := shaped.Optimize()
	if len(plainFront) == 0 || len(shapedFront) == 0 {
		t.Fatal("empty frontier")
	}
	maxQPS := func(front []SchedulePoint) float64 {
		best := 0.0
		for _, p := range front {
			if p.Metrics.QPS > best {
				best = p.Metrics.QPS
			}
		}
		return best
	}
	if !(maxQPS(shapedFront) < maxQPS(plainFront)) {
		t.Errorf("heavy-tailed shaped frontier QPS %.2f should undercut constant-shape %.2f",
			maxQPS(shapedFront), maxQPS(plainFront))
	}
}
