package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/ragschema"
	"rago/internal/trace"
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
		{"caseIII-8B", ragschema.CaseIII(8e9, 4), hw.DefaultCluster(), 0},
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
// so which stampings that plan drops — depends on worker timing; the
// frontier must not. Every configuration must return exactly the
// exhaustive noPrune frontier, at 1, 2 and 8 workers, on Case IV
// (placement-heavy) and on Case I with the formation and retrieval-knob
// dimensions on (where the tiers price a proxy).
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

// TestOptimizeCompileBudget pins how many candidates a search stamps into
// schedules, exactly. One worker keeps each count independent of
// scheduling and of the host.
//
// Case IV: the incumbent filter runs on each decode-merged candidate's
// exact metrics before it is stamped, so only candidates the incumbent
// does not already dominate are stamped: one worker stamps 1,137
// schedules, where filtering after a compile compiled 71,584 and the
// exhaustive reference stamps 118,336.
//
// The shaped rows price every formation (and, on Case I, every retrieval
// knob pair) of every candidate from the tiers, filter the stampings
// against the incumbent and stamp only the frontier of what survives.
// Shaped Case IV 70B on the benchmark's 128-draw lognormal sample, three
// policies and quanta {0, 256} stamps 821 schedules where compiling every
// stamping compiled 518,334; the golden's shaped, knobbed Case I search
// stamps 31 where it compiled 15,912.
func TestOptimizeCompileBudget(t *testing.T) {
	prompt, err := trace.LognormalLengths(512, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	output, err := trace.LognormalLengths(256, 0.7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sample []engine.Shape
	for range 128 {
		sample = append(sample, engine.Shape{PromptTokens: prompt.Sample(rng), OutputTokens: output.Sample(rng)})
	}
	policies := []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
	build := func(schema ragschema.Schema, opts Options) *Optimizer {
		o, err := NewOptimizer(schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, tc := range []struct {
		name string
		want int64
		opt  func(opts Options) *Optimizer
	}{
		{"caseIV", 1_137, func(opts Options) *Optimizer {
			return build(ragschema.CaseIV(8e9), opts)
		}},
		{"caseIV-70B-shaped", 821, func(opts Options) *Optimizer {
			opts.Shapes, opts.Policies, opts.ChunkQuanta = sample, policies, []int{0, 256}
			return build(ragschema.CaseIV(70e9), opts)
		}},
		{"caseI-shaped-knobs", 31, func(opts Options) *Optimizer {
			opts.NormalizeChips = 64
			opts.Shapes, opts.Policies, opts.ChunkQuanta = formationShapes(), policies, []int{0, 256}
			opts.NProbes, opts.ShardFanouts = []int{2, 0, 32}, []int{2, 0}
			return shardedOptimizer(t, ragschema.CaseI(8e9, 1), opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(hw.DefaultCluster())
			opts.Workers = 1
			o := tc.opt(opts)
			if len(o.Optimize()) == 0 {
				t.Fatal("empty frontier")
			}
			if n := o.SearchStats().Stamped; n != tc.want {
				t.Errorf("%s Optimize stamped %d schedules, want %d", tc.name, n, tc.want)
			}
		})
	}
}

// TestMergeMetricsMatchEvaluate pins what the search returns in place of a
// compile: every stamping of every candidate the decode merge returns
// carries, as priceStamps prices it, bit for bit the metrics compiling it
// returns — the exact critical-path TTFT, TPOT, throughput, QPS/chip and
// recall — and priceStamps accepts exactly the stampings that compile. A
// filter fed a value that is off by an ulp could drop a candidate whose
// compiled metrics only tie an incumbent point, which the final frontier
// may keep; an accepted stamping that does not compile would reach the
// frontier as a schedule no executor can run. It walks the exhaustive
// enumeration, with no incumbent cut: every plan of each preset (the
// multi-source fan-out of Case V included) at every iterative batch, and
// Cases I and III with the golden's shape sample, formations and retrieval
// knobs on a sharded tier, where every stamping re-prices the prefix,
// retrieval and decode tiers.
func TestMergeMetricsMatchEvaluate(t *testing.T) {
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
		{"caseIII-shaped-knobs", ragschema.CaseIII(70e9, 4), 64, true},
		{"caseIV-baseline-shaped-knobs", ragschema.CaseIV(8e9), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOpt(t, tc.schema, hw.DefaultCluster(), tc.norm)
			if tc.knobbed {
				opts := DefaultOptions(hw.DefaultCluster())
				opts.NormalizeChips = tc.norm
				opts.Shapes = formationShapes()
				opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
				opts.ChunkQuanta = []int{0, 256}
				opts.NProbes = []int{2, 0, 32}
				opts.ShardFanouts = []int{2, 0}
				o = shardedOptimizer(t, tc.schema, opts)
			}
			plans := o.Plans()
			if strings.Contains(tc.name, "baseline") {
				// The baseline collocates the rewriter with the prefix across
				// the retrieval, so its group pauses at every knob pair.
				plans = []Plan{o.baselinePlan()}
			}
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
					for _, p := range o.planCandidates(ctx, plan, bi) {
						o.priceStamps(ctx, plan, bIter, p, norm)
						for si, got := range ctx.sm {
							s := ctx.stamp(plan, bIter, p, si)
							want, ok := compiledMetrics(o, s)
							if !ok && !got.ok {
								continue
							}
							if got.ok != ok || !sameBits(got.m, want) {
								t.Fatalf("%s at iterative batch %d:\nmerged   %#v (ok %v)\ncompiled %#v (ok %v)\nschedule %+v",
									plan.Describe(o.Pipe), bIter, got.m, got.ok, want, ok, s)
							}
							compared++
						}
					}
				}
			}
			if compared == 0 {
				t.Fatal("no candidate compiled")
			}
		})
	}
}

// pruneRef is the reference Pareto prune of a tier's cross product: the
// contract prunePartialsInto and the decode walk meet, by brute force. It
// drops invalid partials, strictly dominated ones (lower TTFT and TPOT,
// higher throughput) and exact duplicates after the first, and
// stable-sorts the survivors by (TTFT asc, throughput desc, TPOT asc). A
// lone partial passes unvalidated.
func pruneRef(src []spart) []spart {
	if len(src) <= 1 {
		return src
	}
	var out []spart
	for i, p := range src {
		if !partialValid(p) {
			continue
		}
		keep := true
		for j, q := range src {
			if !partialValid(q) {
				continue
			}
			same := q.ttft == p.ttft && q.tpot == p.tpot && q.qps == p.qps
			if same && j < i || !same && q.ttft <= p.ttft && q.tpot <= p.tpot && q.qps >= p.qps {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ttft != b.ttft {
			return a.ttft < b.ttft
		}
		if a.qps != b.qps {
			return a.qps > b.qps
		}
		return a.tpot < b.tpot
	})
	return out
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
	return pruneRef(next)
}

// TestMergeDecodeDifferential drives the decode tier's staircase walk
// against the full cross product on random pre-decode staircases and decode
// tiers drawn from coarse grids, so TTFT, QPS and TPOT ties, decode
// throughputs equal to a partial's, and duplicate decode points are common.
// Each partial and decode point carries a distinct id (node, batch), so the
// survivors must match the reference's representatives and order exactly,
// not just its metrics. Some trials use a single partial, an unbounded one
// (the no-group, no-retrieval start), or decode points the validity filter
// rejects. Two trial classes target the walk's own state: several partial
// sets merged against one ordered tier, as a worker reuses a decode chip
// count's memoized tier across plans, and runs of equal-TPOT decode points
// whose throughputs straddle a partial's, where the capped pair's
// representative is the lowest index at or above the partial's throughput.
func TestMergeDecodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := &searchCtx{} // reused across trials, as a worker's is
	randParts := func(trial int) []spart {
		// Prune random grid points into a staircase, as the group and
		// retrieval tiers leave them.
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
		return prunePartialsInto(&searchCtx{}, raw, nil)
	}
	randDec := func() []decPoint {
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
		return dec
	}
	// straddle draws runs of decode points sharing a TPOT whose throughputs
	// sit a step below, at and above partial throughputs on the grid, in a
	// random index order.
	straddle := func() []decPoint {
		var dec []decPoint
		for range 1 + rng.Intn(4) {
			tpot := float64(1+rng.Intn(5)) * 0.001
			q := float64(1+rng.Intn(8)) * 10
			for _, dq := range []float64{-5, 0, 5, 10} {
				if rng.Intn(4) > 0 {
					dec = append(dec, decPoint{tpot: tpot, qps: q + dq, replicas: int32(rng.Intn(3))})
				}
			}
		}
		rng.Shuffle(len(dec), func(i, j int) { dec[i], dec[j] = dec[j], dec[i] })
		for i := range dec {
			dec[i].batch = int32(i)
		}
		return dec
	}
	check := func(trial int, parts []spart, dec []decPoint, tier *decTier) {
		t.Helper()
		want := decodeCrossRef(parts, dec)
		got := ctx.mergeDecode(append(ctx.parts[:0], parts...), tier)
		if !samePartials(got, want) {
			t.Fatalf("trial %d: merge kept %d partials, cross product %d\nparts %+v\ndec %+v\ngot  %+v\nwant %+v",
				trial, len(got), len(want), parts, dec, got, want)
		}
	}
	var tier decTier // reused across trials, as a worker's iterative tier is
	for trial := 0; trial < 4000; trial++ {
		var dec []decPoint
		switch trial % 20 {
		case 17, 18: // the capped tie
			dec = straddle()
		case 19: // one memoized tier, merged with several partial sets
			dec = randDec()
			memo := &decTier{pts: dec}
			memo.sortStair()
			for k := range 10 {
				check(trial, randParts(k), dec, memo)
			}
			continue
		default:
			dec = randDec()
		}
		tier.pts = dec
		tier.sortStair()
		check(trial, randParts(trial), dec, &tier)
	}
}

// prefixCrossRef is the retired group and retrieval tier extension: every
// (option, partial) pair, in that order, pruned as a whole. Each pair
// carries its option's index in retrB, as the retrieval tier carries its
// batch. stairPairs is differential-tested against it.
func prefixCrossRef(parts []spart, opts []stairOpt) []spart {
	var next []spart
	for oi, o := range opts {
		for _, p := range parts {
			np := p
			np.ttft += o.cost
			np.qps = math.Min(np.qps, o.qps)
			np.retrB = int32(oi)
			next = append(next, np)
		}
	}
	return pruneRef(next)
}

// TestPrefixTierDifferential drives the group and retrieval tiers'
// extension — stairPairs' selection, extended and pruned — against the full
// cross product. Partials are random staircases and options random points,
// both on coarse grids, so TTFT and throughput ties, options whose
// throughput equals a partial's, and duplicate options are common; some
// TTFTs are nudged by a few ulps, so that distinct TTFTs round to equal
// sums, and some grids are so coarse that sums overflow. Options are drawn
// as each tier prices them: a group's throughput is the inverse of its
// occupancy, the retrieval tier's adds the iterative occupancy. Some trials
// use a single partial (the unbounded start, or an invalid one a lone
// pass-through left), a single option, or options with NaN, infinite or
// negative values. Each partial and option carries a distinct id (node,
// retrB), so the survivors must match the reference's representatives and
// order, not just its metrics, and no invalid pair may be selected.
func TestPrefixTierDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctx := &searchCtx{} // reused across trials, as a worker's is
	nudge := func(v float64) float64 {
		for range rng.Intn(4) {
			v = math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	for _, tier := range []string{"group", "retrieval"} {
		for trial := 0; trial < 3000; trial++ {
			unit := 0.01 // the grid's TTFT step
			if trial%10 == 4 {
				unit = 2e307 // sums overflow to +Inf
			}
			var raw []spart
			switch trial % 10 {
			case 0:
				raw = []spart{{qps: qpsUnbounded, node: -1}}
			case 1:
				raw = []spart{{ttft: 0.02, qps: 30, node: 0}}
			case 2: // invalid, passed through alone
				raw = []spart{{ttft: []float64{-0.02, math.NaN(), math.Inf(1)}[rng.Intn(3)], qps: 30, node: 0}}
			default:
				for i := range 1 + rng.Intn(24) {
					p := spart{
						ttft: nudge(float64(1+rng.Intn(8)) * unit),
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

			opts := make([]stairOpt, rng.Intn(14))
			if trial%10 == 3 {
				opts = opts[:min(len(opts), 1)]
			}
			for i := range opts {
				qps := float64(1+rng.Intn(9)) * 10
				o := stairOpt{cost: nudge(float64(rng.Intn(6)) * unit)}
				if tier == "group" {
					o.qps = 1 / (1 / qps) // the inverse of an occupancy
				} else {
					o.qps = 1 / (1/qps + float64(rng.Intn(2))*0.001)
				}
				switch rng.Intn(30) {
				case 0:
					o.cost = math.NaN()
				case 1:
					o.cost = math.Inf(1)
				case 2:
					o.cost = math.Inf(-1)
				case 3:
					o.cost = -float64(1+rng.Intn(4)) * unit
				case 4:
					o.qps = math.NaN()
				case 5:
					o.qps = math.Inf(1)
				case 6:
					o.qps = -10
				case 7, 8:
					if i > 0 { // an exact duplicate under a new id
						o = opts[rng.Intn(i)]
					}
				}
				opts[i] = o
			}

			want := prefixCrossRef(parts, opts)
			var next []spart
			for _, k := range ctx.stairPairs(parts, opts) {
				np := opts[k>>32].extend(parts[uint32(k)])
				if len(parts)*len(opts) > 1 && !partialValid(np) {
					t.Fatalf("%s trial %d: selected the invalid pair %+v", tier, trial, np)
				}
				np.retrB = int32(k >> 32)
				next = append(next, np)
			}
			got := prunePartialsInto(ctx, next, nil)
			if !samePartials(got, want) {
				t.Fatalf("%s trial %d: selection kept %d partials, cross product %d\nparts %+v\nopts %+v\ngot  %+v\nwant %+v",
					tier, trial, len(got), len(want), parts, opts, got, want)
			}
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

// TestPrefixFillBudget pins the pairs the group and retrieval tiers hand to
// prunePartialsInto in a one-worker Case IV search: stairPairs' selections.
// The full cross products were 205,261 and 118,503 pairs, of which the
// prunes keep 36,718 and 13,167. Each prefix is filled once, so the counts
// do not depend on worker timing.
func TestPrefixFillBudget(t *testing.T) {
	const groupWant, retrWant = 39_523, 16_614
	opts := DefaultOptions(hw.DefaultCluster())
	opts.Workers = 1
	o, err := NewOptimizer(ragschema.CaseIV(8e9), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Optimize()) == 0 {
		t.Fatal("empty frontier")
	}
	if st := o.SearchStats(); st.groupPairs != groupWant || st.retrPairs != retrWant {
		t.Errorf("group tier pruned %d pairs, retrieval tier %d; want %d, %d", st.groupPairs, st.retrPairs, groupWant, retrWant)
	}
}

// TestIterativeDecodeBudget pins the decode tier's work in a one-worker
// Case III search (8B, four retrievals per sequence, the c3-iterative
// workload's shape): the §5.3 round terms are priced once per decode tier
// the search builds, 390 of them, where pricing each decode batch and
// replica candidate through the whole stall model took 6,578 calls; and
// each decode chip count's candidates are fetched once, every plan of a
// chip count after the first reading them from the worker's memo.
func TestIterativeDecodeBudget(t *testing.T) {
	const roundsWant = 390
	opts := DefaultOptions(hw.DefaultCluster())
	opts.Workers = 1
	o, err := NewOptimizer(ragschema.CaseIII(8e9, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	chips := map[int]bool{}
	for _, p := range o.Plans() {
		chips[p.DecodeChips] = true
	}
	if len(o.Optimize()) == 0 {
		t.Fatal("empty frontier")
	}
	if st := o.SearchStats(); st.iterRounds != roundsWant || st.decFetches != int64(len(chips)) {
		t.Errorf("priced the round %d times and fetched decode candidates %d times; want %d and %d (one per decode chip count)", st.iterRounds, st.decFetches, roundsWant, len(chips))
	}
}
