package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/ragschema"
)

// frontierDigest hashes a frontier in order: every point's metric bits and
// its full schedule. Two frontiers share a digest only if they hold the same
// points, bit for bit, represented by the same schedules in the same order.
func frontierDigest(front []SchedulePoint) string {
	h := sha256.New()
	for _, p := range front {
		m := p.Metrics
		for _, v := range []float64{m.TTFT, m.TPOT, m.QPS, m.QPSPerChip, m.Recall} {
			fmt.Fprintf(h, "%016x ", math.Float64bits(v))
		}
		fmt.Fprintf(h, "%+v\n", p.Item)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOptimizeFrontierGolden pins the optimizer's output itself. The
// pruned-versus-exhaustive tests compare two runs of the same per-plan
// search, so a change that alters both sides alike (partial generation,
// the decode merge, stage pricing) passes them; these digests do not move
// unless some frontier point, its metrics or its schedule changes.
// Regenerate deliberately with UPDATE_GOLDEN=1 after a change that is meant
// to move the frontier.
func TestOptimizeFrontierGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full searches")
	}
	cases := []struct {
		name    string
		schema  ragschema.Schema
		norm    int
		knobbed bool
	}{
		{"caseI", ragschema.CaseI(8e9, 1), 64, false},
		{"caseII", ragschema.CaseII(70e9, 1_000_000), 0, false},
		{"caseIII", ragschema.CaseIII(70e9, 4), 64, false},
		{"caseIV", ragschema.CaseIV(8e9), 0, false},
		{"caseV", ragschema.CaseV(8e9, 2), 64, false},
		{"caseI-shaped-knobs", ragschema.CaseI(8e9, 1), 64, true},
	}
	got := map[string]string{}
	for _, tc := range cases {
		opts := DefaultOptions(hw.DefaultCluster())
		opts.NormalizeChips = tc.norm
		var o *Optimizer
		if tc.knobbed {
			opts.Shapes = formationShapes()
			opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
			opts.ChunkQuanta = []int{0, 256}
			opts.NProbes = []int{2, 0, 32}
			opts.ShardFanouts = []int{2, 0}
			o = shardedOptimizer(t, tc.schema, opts)
		} else {
			o = newOpt(t, tc.schema, opts.Cluster, tc.norm)
		}
		front := o.Optimize()
		if len(front) == 0 {
			t.Fatalf("%s: empty frontier", tc.name)
		}
		got[tc.name] = frontierDigest(front)
	}

	golden := filepath.Join("testdata", "frontier_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if got[tc.name] != want[tc.name] {
			t.Errorf("%s: frontier digest %s, golden %s — the search's output moved", tc.name, got[tc.name], want[tc.name])
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden holds %d digests, test computes %d", len(want), len(cases))
	}
}

// TestFrontierCompiles pins that the search returns only schedules that
// compile, each at the metrics compiling it returns. The search prices and
// stamps its points and compiles none of them, so this compiles every
// point it returns with o.Compile — of the golden's option sets, of a
// shaped, knob-searched Case III, and of each one's BaselineFrontier — and
// compares the metrics bit for bit.
func TestFrontierCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven full searches")
	}
	for _, tc := range []struct {
		name    string
		schema  ragschema.Schema
		norm    int
		knobbed bool
	}{
		{"caseI", ragschema.CaseI(8e9, 1), 64, false},
		{"caseII", ragschema.CaseII(70e9, 1_000_000), 0, false},
		{"caseIII", ragschema.CaseIII(70e9, 4), 64, false},
		{"caseIV", ragschema.CaseIV(8e9), 0, false},
		{"caseV", ragschema.CaseV(8e9, 2), 64, false},
		{"caseI-shaped-knobs", ragschema.CaseI(8e9, 1), 64, true},
		{"caseIII-shaped-knobs", ragschema.CaseIII(70e9, 4), 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(hw.DefaultCluster())
			opts.NormalizeChips = tc.norm
			o := newOpt(t, tc.schema, opts.Cluster, tc.norm)
			if tc.knobbed {
				opts.Shapes = formationShapes()
				opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
				opts.ChunkQuanta = []int{0, 256}
				opts.NProbes = []int{2, 0, 32}
				opts.ShardFanouts = []int{2, 0}
				o = shardedOptimizer(t, tc.schema, opts)
			}
			for _, front := range [][]SchedulePoint{o.Optimize(), o.BaselineFrontier()} {
				if len(front) == 0 {
					t.Fatal("empty frontier")
				}
				for _, p := range front {
					if m, ok := compiledMetrics(o, p.Item); !ok || !sameBits(m, p.Metrics) {
						t.Fatalf("searched %#v, compiled %#v (ok %v)\nschedule %+v", p.Metrics, m, ok, p.Item)
					}
				}
			}
		})
	}
}

// sameBits reports whether two metrics are equal bit for bit.
func sameBits(a, b perf.Metrics) bool {
	bits := math.Float64bits
	return bits(a.TTFT) == bits(b.TTFT) && bits(a.TPOT) == bits(b.TPOT) && bits(a.QPS) == bits(b.QPS) &&
		bits(a.QPSPerChip) == bits(b.QPSPerChip) && bits(a.Recall) == bits(b.Recall)
}
