package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/ragschema"
)

// exhaustiveRef makes o, before its first search, the exhaustive reference
// search the pruned one is tested against: no plan bounds, no pruning, plans
// dispatched in enumeration order.
func exhaustiveRef(o *Optimizer) *Optimizer {
	o.noPrune = true
	return o
}

// TestBranchAndBoundMatchesExhaustive is the branch-and-bound acceptance
// test: on every case preset, the pruned concurrent search must return a
// frontier identical — schedules and metrics, in order — to the noPrune
// exhaustive reference. Pruning is only allowed to skip work that is
// provably strictly dominated, so any divergence here is a bound
// admissibility bug.
func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name    string
		schema  ragschema.Schema
		cluster hw.Cluster
		norm    int
	}{
		{"caseI", ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64},
		{"caseII", ragschema.CaseII(70e9, 1_000_000), hw.DefaultCluster(), 0},
		{"caseIII", ragschema.CaseIII(70e9, 4), hw.DefaultCluster(), 64},
		{"caseIV", ragschema.CaseIV(8e9), hw.DefaultCluster(), 0},
		{"caseV", ragschema.CaseV(8e9, 2), hw.DefaultCluster(), 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(tc.cluster)
			opts.NormalizeChips = tc.norm

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
				t.Fatal("exhaustive frontier is empty — the case is not exercising the search")
			}
			if len(got) != len(want) {
				t.Fatalf("frontier size diverged: pruned %d vs exhaustive %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Metrics != want[i].Metrics {
					t.Errorf("point %d metrics diverged:\npruned     %v\nexhaustive %v", i, got[i].Metrics, want[i].Metrics)
				}
				if !reflect.DeepEqual(got[i].Item, want[i].Item) {
					t.Errorf("point %d schedule diverged:\npruned     %+v\nexhaustive %+v", i, got[i].Item, want[i].Item)
				}
			}
		})
	}
}

// TestPlanBoundAdmissible checks the bound's defining property directly:
// no schedule on a plan's frontier may beat the plan's optimistic bound on
// any objective.
func TestPlanBoundAdmissible(t *testing.T) {
	o := newOpt(t, ragschema.CaseIV(8e9), hw.DefaultCluster(), 0)
	plans := o.Plans()
	checked := 0
	terms := make(boundTerms) // shared, as in Optimize: later plans read memoized terms
	for i, plan := range plans {
		if i%97 != 0 { // sample; every plan costs a full sub-search
			continue
		}
		bound, ok := o.planBound(plan, terms)
		front := o.PlanFrontier(plan)
		if !ok {
			if len(front) != 0 {
				t.Fatalf("plan %d: bound says infeasible but frontier has %d points", i, len(front))
			}
			continue
		}
		for _, p := range front {
			m := p.Metrics
			if m.TTFT < bound.TTFT || m.TPOT < bound.TPOT || m.QPS > bound.QPS || m.QPSPerChip > bound.QPSPerChip {
				t.Fatalf("plan %d: point %v beats admissible bound %v", i, m, bound)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no plans checked")
	}
}

// TestWorkersOption pins that search concurrency changes neither the
// frontier nor determinism. What the incumbent holds when a plan runs — and
// so which partials and candidates that plan drops — depends on worker
// timing; the frontier must not. Every configuration must return exactly
// the exhaustive noPrune frontier, at 1, 2 and 8 workers, on Case IV
// (placement-heavy) and on Case I with the formation and retrieval-knob
// dimensions on (where the partial cut is off and only the candidate
// filter prunes within a plan).
func TestWorkersOption(t *testing.T) {
	cases := []struct {
		name   string
		schema ragschema.Schema
		norm   int
		dims   bool
	}{
		{"caseI", ragschema.CaseI(8e9, 1), 64, false},
		{"caseI-dims", ragschema.CaseI(8e9, 1), 64, true},
		{"caseIV", ragschema.CaseIV(8e9), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int, noPrune bool) []SchedulePoint {
				opts := DefaultOptions(hw.DefaultCluster())
				opts.NormalizeChips = tc.norm
				opts.Workers = workers
				var o *Optimizer
				if !tc.dims {
					var err error
					if o, err = NewOptimizer(tc.schema, opts); err != nil {
						t.Fatal(err)
					}
				} else {
					opts.Shapes = formationShapes()
					opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
					opts.ChunkQuanta = []int{0, 256}
					opts.NProbes = []int{2, 0, 32}
					opts.ShardFanouts = []int{2, 0}
					o = shardedOptimizer(t, tc.schema, opts)
				}
				if noPrune {
					exhaustiveRef(o)
				}
				return o.Optimize()
			}
			want := run(0, true)
			if len(want) == 0 {
				t.Fatal("exhaustive frontier is empty")
			}
			for _, w := range []int{1, 2, 8} {
				if got := run(w, false); !reflect.DeepEqual(got, want) {
					t.Errorf("Workers=%d frontier (%d points) diverged from the exhaustive one (%d points)", w, len(got), len(want))
				}
			}
		})
	}
}

// TestOptimizeAllocs pins the search's allocation budget: one cold Case IV
// Optimize (profiler memo empty) keeps only candidates that can still reach
// the frontier, so it allocates a bounded, small number of objects instead
// of one heap schedule per evaluated candidate. Before the prefix memo the
// search allocated about 91.7k objects; with it, about 94.8k (two exact-size
// slices per memoized prefix). Filtering candidates before the compile
// brought it to about 87.5k. The budget is 1.3x that, so per-partial
// allocations in the memo would fail it.
func TestOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("runs two full Case IV searches")
	}
	const budget = 113_700
	n := testing.AllocsPerRun(1, func() {
		o, err := NewOptimizer(ragschema.CaseIV(8e9), DefaultOptions(hw.DefaultCluster()))
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Optimize()) == 0 {
			t.Fatal("empty frontier")
		}
	})
	if n > budget {
		t.Errorf("Case IV Optimize allocates %.0f objects, budget %d", n, budget)
	}
}

// TestOptimizeCompileBudget pins how few candidates a Case IV search
// compiles. The incumbent filter runs on each decode-merged candidate's
// exact metrics before it is stamped, so only candidates the incumbent
// does not already dominate are compiled: one worker compiles 1,137
// schedules, where filtering after the compile compiled 71,584 and the
// exhaustive reference compiles 118,336. The budget is 1.3x the measured count. One
// worker keeps the count independent of scheduling and of the host.
func TestOptimizeCompileBudget(t *testing.T) {
	const budget = 1_480
	opts := DefaultOptions(hw.DefaultCluster())
	opts.Workers = 1
	o, err := NewOptimizer(ragschema.CaseIV(8e9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Optimize()) == 0 {
		t.Fatal("empty frontier")
	}
	if n := o.SearchStats().Compiled; n == 0 || n > budget {
		t.Errorf("Case IV Optimize compiled %d schedules, budget %d", n, budget)
	}
}

// TestMergeMetricsMatchEvaluate pins what the incumbent filter before the
// compile relies on: every candidate the decode merge returns carries, bit
// for bit, the metrics compiling it returns — the exact critical-path TTFT,
// TPOT, throughput, QPS/chip and recall. A filter fed a value that is off
// by an ulp could drop a candidate whose compiled metrics only tie an
// incumbent point, which the final frontier may keep. It walks the
// exhaustive enumeration, with no incumbent cut: every plan of each preset
// (the multi-source fan-out of Case V included) at every iterative batch.
func TestMergeMetricsMatchEvaluate(t *testing.T) {
	cases := []struct {
		name   string
		schema ragschema.Schema
		norm   int
	}{
		{"caseI", ragschema.CaseI(8e9, 1), 64},
		{"caseII", ragschema.CaseII(70e9, 1_000_000), 0},
		{"caseIII", ragschema.CaseIII(70e9, 4), 64},
		{"caseIV", ragschema.CaseIV(8e9), 0},
		{"caseV", ragschema.CaseV(8e9, 2), 64},
	}
	bits := math.Float64bits
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOpt(t, tc.schema, hw.DefaultCluster(), tc.norm)
			plans := o.Plans()
			ctx := o.newSearchCtx()
			prefixes := 0
			for _, p := range plans {
				prefixes = max(prefixes, p.prefix)
			}
			ctx.memo = make([]prefixSlot, prefixes*len(ctx.iterBatches))
			compared := 0
			for _, plan := range plans {
				norm := o.normChips(plan)
				for bi, bIter := range ctx.iterBatches {
					for _, p := range o.planCandidates(ctx, plan, bi, nil, perf.Metrics{}) {
						want, ok := ctx.evaluate(*ctx.stamp(plan, bIter, p))
						if !ok {
							continue
						}
						got := ctx.mergedMetrics(p, norm)
						if bits(got.TTFT) != bits(want.TTFT) || bits(got.TPOT) != bits(want.TPOT) ||
							bits(got.QPS) != bits(want.QPS) || bits(got.QPSPerChip) != bits(want.QPSPerChip) ||
							bits(got.Recall) != bits(want.Recall) {
							t.Fatalf("%s at iterative batch %d:\nmerged   %#v\ncompiled %#v\nschedule %+v",
								plan.Describe(o.Pipe), bIter, got, want, ctx.scratch)
						}
						compared++
					}
				}
			}
			if compared == 0 {
				t.Fatal("no candidate compiled")
			}
		})
	}
}

// decodeCrossRef is the retired decode tier: every (decode point, partial)
// combination, in that order, pruned as a whole. mergeDecode is
// differential-tested against it.
func decodeCrossRef(parts []spart, dec []decPoint) []spart {
	var next []spart
	for _, d := range dec {
		for _, p := range parts {
			np := p
			np.tpot = d.tpot
			np.qps = math.Min(np.qps, d.qps)
			np.decB = d.batch
			np.decR = d.replicas
			next = append(next, np)
		}
	}
	return prunePartialsInto(&searchCtx{}, next, nil)
}

// TestMergeDecodeDifferential drives the two-staircase decode merge against
// the full cross product on random pre-decode staircases and decode tiers
// drawn from coarse grids, so TTFT, QPS and TPOT ties, decode throughputs
// equal to a partial's, and duplicate decode points are common. Each
// partial and decode point carries a distinct id (node, batch), so the
// survivors must match the reference's representatives and order exactly,
// not just its metrics. Some trials use a single partial, an unbounded one
// (the no-group, no-retrieval start), or decode points the validity filter
// rejects.
func TestMergeDecodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := &searchCtx{} // reused across trials, as a worker's is
	for trial := 0; trial < 3000; trial++ {
		// Pre-decode partials: prune random grid points into a staircase,
		// as the group and retrieval tiers leave them.
		var raw []spart
		switch trial % 10 {
		case 0:
			raw = []spart{{qps: qpsUnbounded, node: -1}}
		case 1:
			raw = []spart{{ttft: 0.02, qps: 30, node: 0}}
		default:
			for i := range 1 + rng.Intn(24) {
				p := spart{
					ttft: float64(1+rng.Intn(8)) * 0.01,
					qps:  float64(1+rng.Intn(8)) * 10,
					node: int32(i),
				}
				if rng.Intn(20) == 0 {
					p.qps = qpsUnbounded
				}
				raw = append(raw, p)
			}
		}
		parts := prunePartialsInto(&searchCtx{}, raw, nil)

		dec := make([]decPoint, rng.Intn(14))
		for i := range dec {
			d := decPoint{
				tpot:     float64(1+rng.Intn(5)) * 0.001,
				qps:      float64(1+rng.Intn(9)) * 10,
				batch:    int32(i),
				replicas: int32(rng.Intn(3)),
			}
			switch rng.Intn(25) {
			case 0:
				d.tpot = math.NaN()
			case 1:
				d.qps = math.Inf(1)
			case 2:
				d.tpot = math.Inf(1)
			case 3:
				if i > 0 { // an exact duplicate under a new id
					d = dec[rng.Intn(i)]
					d.batch = int32(i)
				}
			}
			dec[i] = d
		}

		want := decodeCrossRef(parts, dec)
		got := ctx.mergeDecode(append(ctx.parts[:0], parts...), dec)
		if !samePartials(got, want) {
			t.Fatalf("trial %d: merge kept %d partials, cross product %d\nparts %+v\ndec %+v\ngot  %+v\nwant %+v",
				trial, len(got), len(want), parts, dec, got, want)
		}
	}
}

// samePartials compares partials field for field, floats by their bits (a
// lone NaN partial passes the prune unfiltered on both sides).
func samePartials(a, b []spart) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if bits(x.ttft) != bits(y.ttft) || bits(x.tpot) != bits(y.tpot) || bits(x.qps) != bits(y.qps) {
			return false
		}
		x.ttft, x.tpot, x.qps = 0, 0, 0
		y.ttft, y.tpot, y.qps = 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// pruneGroupChoicesRef is the retired O(n²) pairwise implementation, kept
// as the reference the staircase sweep is differential-tested against.
func pruneGroupChoicesRef(cs []groupChoice) []groupChoice {
	var out []groupChoice
	for i, a := range cs {
		dominated := false
		for j, b := range cs {
			if i == j {
				continue
			}
			if b.ttft <= a.ttft && b.occ <= a.occ && (b.ttft < a.ttft || b.occ < a.occ) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// TestPruneGroupChoicesDifferential drives the staircase sweep against the
// pairwise reference on random inputs, including heavy ties and exact
// duplicates (which dominate neither way and must all survive, in input
// order).
func TestPruneGroupChoicesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		cs := make([]groupChoice, n)
		for i := range cs {
			// Coarse grid to force ties and duplicates.
			cs[i] = groupChoice{
				ttft:  float64(rng.Intn(6)) * 0.01,
				occ:   float64(rng.Intn(6)) * 0.001,
				batch: 1 << uint(rng.Intn(4)),
			}
		}
		got := pruneGroupChoices(append([]groupChoice(nil), cs...))
		want := pruneGroupChoicesRef(cs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d choices, reference kept %d\ninput: %+v", trial, len(got), len(want), cs)
		}
		for i := range want {
			if got[i].ttft != want[i].ttft || got[i].occ != want[i].occ || got[i].batch != want[i].batch {
				t.Fatalf("trial %d: choice %d diverged: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestPlanCountGolden pins the size of the (placement, allocation)
// enumeration per case preset on the default cluster, so any change to the
// enumeration — intended or not — is visible in review.
func TestPlanCountGolden(t *testing.T) {
	cases := []struct {
		name   string
		schema ragschema.Schema
		want   int
	}{
		{"caseI", ragschema.CaseI(8e9, 1), 36},
		{"caseII", ragschema.CaseII(70e9, 1_000_000), 200},
		{"caseIII", ragschema.CaseIII(70e9, 4), 36},
		{"caseIV", ragschema.CaseIV(8e9), 7810},
		{"caseV", ragschema.CaseV(8e9, 2), 236},
	}
	for _, tc := range cases {
		o := newOpt(t, tc.schema, hw.DefaultCluster(), 0)
		if got := len(o.Plans()); got != tc.want {
			t.Errorf("%s: %d plans, golden %d — update the golden if the enumeration change is intended", tc.name, got, tc.want)
		}
	}
}

// TestRelaxWidens sanity-checks the float-drift margin helper: the relaxed
// bound must be weakly better on every objective.
func TestRelaxWidens(t *testing.T) {
	m := perf.Metrics{TTFT: 0.1, TPOT: 0.01, QPS: 100, QPSPerChip: 1.5}
	r := relax(m, 1e-9)
	if r.TTFT > m.TTFT || r.TPOT > m.TPOT || r.QPS < m.QPS || r.QPSPerChip < m.QPSPerChip {
		t.Fatalf("relax did not widen: %v -> %v", m, r)
	}
	if math.IsNaN(r.TTFT) {
		t.Fatal("NaN")
	}
}
