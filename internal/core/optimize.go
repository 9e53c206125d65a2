package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/roofline"
	"rago/internal/stageperf"
)

// Options configures the schedule search.
type Options struct {
	// Cluster is the resource pool (XPU budget = Cluster.XPUs(),
	// retrieval server budget = Cluster.Hosts).
	Cluster hw.Cluster
	// MaxPreBatch bounds pre-decode stage batch sizes (powers of two).
	MaxPreBatch int
	// MaxRetrievalBatch bounds the initial-retrieval batch size.
	MaxRetrievalBatch int
	// MaxDecodeBatch bounds the continuous-batching decode batch and
	// the iterative retrieval/prefix batch.
	MaxDecodeBatch int
	// NormalizeChips, when positive, fixes the QPS/chip denominator
	// (used by §5's characterization, which charges the whole pool).
	NormalizeChips int
	// Placements overrides the Fig. 13 legal enumeration when non-nil.
	Placements []pipeline.Placement
	// Shapes, when non-empty, scores every candidate schedule by the
	// policy-aware shape-weighted metrics (engine.Plan.ShapeMetrics) over
	// this per-request length sample instead of the schema constants.
	// Heterogeneous traffic is what differentiates formation policies; the
	// plan bounds relax onto the sample minima to stay admissible against
	// the shaped pricing. Compile's plans carry the same shaped metrics.
	Shapes []engine.Shape
	// Policies enumerates batch-formation policies as a schedule search
	// dimension. Empty searches only FIFO — byte-compatible with the
	// historical search.
	Policies []engine.BatchPolicy
	// ChunkQuanta enumerates chunked-prefill quanta alongside the batch
	// search (0 = chunking off). Empty searches only 0.
	ChunkQuanta []int
	// NProbes enumerates retrieval probe counts (IVF cells scanned per
	// query) as a schedule search dimension; 0 means the tier's base
	// configuration. Empty searches only the base — byte-compatible with
	// the historical search. More probes buy recall (when the profiler
	// carries a calibrated RecallModel) for proportionally more scan.
	NProbes []int
	// ShardFanouts enumerates scatter-gather fanouts (shards consulted
	// per query) on a sharded retrieval tier; 0 means all shards. Empty
	// searches only all-shards.
	ShardFanouts []int
	// Workers caps search concurrency; 0 means GOMAXPROCS.
	Workers int
}

// DefaultOptions returns the search bounds used throughout the paper
// reproduction: batches in powers of two up to 32 for pre-decode stages,
// 256 for retrieval, and 2048 for the decode tier (the tier batch divides
// across data-parallel replicas; Table 4 schedules run per-tier batches of
// 1024). §6.2 grants users the power-of-two granularity knob.
func DefaultOptions(cluster hw.Cluster) Options {
	return Options{
		Cluster:           cluster,
		MaxPreBatch:       32,
		MaxRetrievalBatch: 256,
		MaxDecodeBatch:    2048,
	}
}

// Optimizer runs the schedule search for one workload under options fixed
// at construction, so every memo it keeps is valid for its lifetime; a
// different search is a different optimizer (With). Configure the Profiler
// (Shards, RecallMod, NoMemo) before the first search, as stageperf.Profiler
// requires: each search reads its cheapest retrieval knobs and base recall
// from it, but the group-choice memo does not key on them.
type Optimizer struct {
	Pipe pipeline.Pipeline
	Prof *stageperf.Profiler

	opts Options
	// noPrune selects the exhaustive reference search: no plan bounds, no
	// pruning, no bound-ordered dispatch. The frontier is provably
	// identical either way; the in-package differential tests set it.
	noPrune bool
	space   searchSpace

	// gmu guards gcache, the memo of pruned per-group batching choices
	// (see groupChoicesFor): the same (group, chips, servers) triple recurs
	// across every decode-chip variation of the allocation enumeration and
	// across calls. What its key omits — the batch ladder, the cheapest
	// knob pair — is fixed for the optimizer's lifetime.
	gmu    sync.Mutex
	gcache map[groupKey][]groupChoice

	// smu guards stats, which describes the most recent Optimize call.
	smu   sync.Mutex
	stats SearchStats
}

// SearchStats summarizes one Optimize call's branch-and-bound behaviour:
// how much of the enumeration the admissible bounds eliminated, and how
// tight those bounds were against what the search actually achieved. An
// exhaustive reference run reports only Plans, Searched and Stamped — it
// computes no bounds, so the pruning counter and gaps stay zero.
//
// With more than one worker the pruning counter and Stamped depend on
// worker timing: which plans finish first decides how tight the incumbent
// is when each later plan is probed. Six 2-worker Case IV searches stamped
// 1,139–1,222 schedules where six 1-worker searches stamped 1,137 each.
// The frontier does not move; exact counters come from a Workers: 1 search.
type SearchStats struct {
	// Plans is the full enumeration size; Infeasible the plans skipped
	// because no schedule of theirs compiles; PrunedPlans the feasible
	// plans skipped whole because the incumbent frontier dominated their
	// bound; Searched the plans whose batching space was explored.
	Plans       int `json:"plans"`
	Infeasible  int `json:"infeasible"`
	PrunedPlans int `json:"pruned_plans"`
	Searched    int `json:"searched"`
	// PrunedPartials is always 0: the search no longer cuts pre-decode
	// partials against the incumbent, since the plan bound and the
	// stamping filter left that cut nothing to save. The field stays so
	// existing readers of the stats and their JSON keep working.
	PrunedPartials int64 `json:"pruned_partials"`
	// Stamped counts the schedules the search stamped out of its
	// candidates. Every stamping of every candidate is priced from the
	// tiers and filtered against the incumbent first, so only the frontier
	// of each plan's survivors becomes a Schedule (stampFront).
	Stamped int64 `json:"stamped"`
	// TTFTGap, TPOTGap, and QPSGap are per-objective bound-to-achieved
	// ratios, each >= 1 when defined (0 when not): the frontier's best
	// achieved value over the best optimistic bound for the latency
	// objectives, and the inverse for throughput. 1.0 means the bound is
	// exact on that axis; large values mean it is loose there and prunes
	// little.
	TTFTGap float64 `json:"ttft_gap"`
	TPOTGap float64 `json:"tpot_gap"`
	QPSGap  float64 `json:"qps_gap"`

	// The search's work counters, summed over the workers like Stamped:
	// the pairs the group and retrieval tiers hand to prunePartialsInto
	// (each prefix is filled once), the §5.3 round pricings of iterative
	// decode tiers, and the decode chip counts whose candidates a worker
	// fetched (decodePoints).
	groupPairs, retrPairs, iterRounds, decFetches int64
}

// String renders the stats as the two CLI lines `rago optimize` prints.
func (s SearchStats) String() string {
	out := fmt.Sprintf("search: %d plans (%d infeasible, %d pruned by bound, %d searched), %d schedules stamped",
		s.Plans, s.Infeasible, s.PrunedPlans, s.Searched, s.Stamped)
	if s.TTFTGap > 0 || s.TPOTGap > 0 || s.QPSGap > 0 {
		out += fmt.Sprintf("\nbound gap (achieved/bound): TTFT %.2fx, TPOT %.2fx, QPS %.2fx",
			s.TTFTGap, s.TPOTGap, s.QPSGap)
	}
	return out
}

// SearchStats returns the statistics of the most recent Optimize call to
// finish (zero-valued before the first).
func (o *Optimizer) SearchStats() SearchStats {
	o.smu.Lock()
	defer o.smu.Unlock()
	return o.stats
}

// NewOptimizer builds an optimizer for schema under opts.
func NewOptimizer(schema ragschema.Schema, opts Options) (*Optimizer, error) {
	pipe, err := pipeline.Build(schema)
	if err != nil {
		return nil, err
	}
	// The search's evaluators check nothing else (engine.NewEvaluator).
	if err := pipe.ValidateGraph(); err != nil {
		return nil, err
	}
	return newOptimizer(pipe, stageperf.New(opts.Cluster.Chip, opts.Cluster.Host, schema), opts)
}

// With returns an optimizer for the same workload under opts, validated as
// NewOptimizer validates them. It shares o's pipeline and profiler — whose
// memo keys on everything it reads — and starts its own search memos.
// opts must name the profiler's chip and host.
func (o *Optimizer) With(opts Options) (*Optimizer, error) {
	if opts.Cluster.Chip != o.Prof.Sim.Chip || opts.Cluster.Host != o.Prof.Host {
		return nil, fmt.Errorf("core: With keeps the profiler's chip and host; build a new optimizer for other hardware")
	}
	return newOptimizer(o.Pipe, o.Prof, opts)
}

// Compile compiles s into the execution plan the executors run, through
// the pipeline and profiler that priced it (sharded tier and recall surface
// included), with the engine's descriptive error on infeasibility. The
// plan's metrics are the ones the search priced s at: ShapeMetrics over
// Options.Shapes when the search is shaped, so every reference read off
// the plan (a report's analytic, a library's capacities) is for the
// traffic the schedule was chosen for, and like engine.Compile it refuses
// a schedule whose metrics are not Valid. They are per allocated chip
// whatever Options.NormalizeChips says.
func (o *Optimizer) Compile(s Schedule) (*engine.Plan, error) {
	p, err := engine.Compile(o.Pipe, s, o.Prof)
	if err != nil || len(o.opts.Shapes) == 0 {
		return p, err
	}
	if p.Metrics = p.ShapeMetrics(o.opts.Shapes); !p.Metrics.Valid() {
		return nil, fmt.Errorf("core: schedule assembles to unphysical shaped metrics %v", p.Metrics)
	}
	return p, nil
}

// newOptimizer validates opts and owns a copy of them, slices included, so
// no caller can change the search after its memos are built. The search
// compiles nothing, so every option it stamps onto a schedule is checked
// here, as compiling the schedule would check it.
func newOptimizer(pipe pipeline.Pipeline, prof *stageperf.Profiler, opts Options) (*Optimizer, error) {
	if err := opts.Cluster.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxPreBatch < 1 || opts.MaxRetrievalBatch < 1 || opts.MaxDecodeBatch < 1 {
		return nil, fmt.Errorf("core: batch bounds must be positive")
	}
	for i, pl := range opts.Placements {
		if err := pl.Validate(pipe); err != nil {
			return nil, fmt.Errorf("core: placement %d: %w", i, err)
		}
	}
	for _, pol := range opts.Policies {
		if pol < engine.PolicyFIFO || pol > engine.PolicySorted {
			return nil, fmt.Errorf("core: unknown batch-formation policy %d", int(pol))
		}
	}
	for _, dim := range []struct {
		name string
		xs   []int
	}{{"chunk quantum", opts.ChunkQuanta}, {"nprobe", opts.NProbes}, {"shard fanout", opts.ShardFanouts}} {
		if i := slices.IndexFunc(dim.xs, func(x int) bool { return x < 0 }); i >= 0 {
			return nil, fmt.Errorf("core: negative %s %d", dim.name, dim.xs[i])
		}
	}
	opts.Placements = slices.Clone(opts.Placements)
	opts.Shapes = slices.Clone(opts.Shapes)
	opts.Policies = slices.Clone(opts.Policies)
	opts.ChunkQuanta = slices.Clone(opts.ChunkQuanta)
	opts.NProbes = slices.Clone(opts.NProbes)
	opts.ShardFanouts = slices.Clone(opts.ShardFanouts)
	return &Optimizer{
		Pipe:   pipe,
		Prof:   prof,
		opts:   opts,
		space:  newSearchSpace(pipe, opts),
		gcache: make(map[groupKey][]groupChoice),
	}, nil
}

// Plan is one (placement, allocation) pair — the unit whose batch-policy
// frontier Fig. 16 plots individually.
type Plan struct {
	Placement   pipeline.Placement
	GroupChips  []int
	DecodeChips int
	Servers     int

	// prefix numbers the plan's (placement, group chips, servers) prefix,
	// from 1; plans Plans enumerates with the same prefix share its
	// pre-decode frontier within an Optimize call. 0 means unnumbered.
	prefix int
}

// Describe renders the plan compactly.
func (p Plan) Describe(pipe pipeline.Pipeline) string {
	return fmt.Sprintf("%s chips=%v decode=%d servers=%d",
		p.Placement.Describe(pipe), p.GroupChips, p.DecodeChips, p.Servers)
}

// placements returns the search's placement candidates.
func (o *Optimizer) placements() []pipeline.Placement {
	if o.opts.Placements != nil {
		return o.opts.Placements
	}
	return o.Pipe.Placements()
}

// serverOptions returns per-tier retrieval server counts to consider. A
// multi-source pipeline provisions one tier per source, so the host
// budget divides across the sources; a corpus whose minimum server count
// does not fit its share yields no options (and hence no plans).
func (o *Optimizer) serverOptions() []int {
	sources := len(o.Pipe.Indices(pipeline.KindRetrieval))
	if sources == 0 {
		return []int{0}
	}
	budget := o.opts.Cluster.Hosts / sources
	min := o.Prof.MinRetrievalServers()
	if min > budget {
		return nil
	}
	if min <= 1 && budget >= 1 {
		return []int{1}
	}
	opts := []int{min}
	for _, p := range roofline.Pow2Range(min, budget) {
		if p != min {
			opts = append(opts, p)
		}
	}
	return opts
}

// Plans enumerates every (placement, allocation) combination within the
// chip budget (Algorithm 1: getPlacementOptions x getAllocationOptions),
// numbering each distinct pre-decode prefix — the placement, its group
// chips and the server count — so Optimize can build each prefix's
// frontier once for all its decode-chip variants.
func (o *Optimizer) Plans() []Plan {
	budget := o.opts.Cluster.XPUs()
	chipOpts := roofline.Pow2Range(1, budget)
	decodeMin := o.Prof.Sim.MinChips(o.Pipe.Stages[o.Pipe.Index(pipeline.KindDecode)].Model)
	// Invariant across the whole enumeration; the recursion below used
	// to recompute it in its innermost decode loop.
	srvOpts := o.serverOptions()
	var plans []Plan
	prefixes := 0
	for _, pl := range o.placements() {
		mins := o.groupMinChips(pl)
		var rec func(gi, used int, acc []int)
		rec = func(gi, used int, acc []int) {
			if gi == len(pl.Groups) {
				first := -1 // the prefix number of (acc, srvOpts[0])
				for _, dc := range chipOpts {
					if dc < decodeMin || used+dc > budget {
						continue
					}
					if first < 0 {
						first = prefixes + 1
						prefixes += len(srvOpts)
					}
					for si, srv := range srvOpts {
						plans = append(plans, Plan{
							Placement:   pl,
							GroupChips:  append([]int(nil), acc...),
							DecodeChips: dc,
							Servers:     srv,
							prefix:      first + si,
						})
					}
				}
				return
			}
			for _, c := range chipOpts {
				if c < mins[gi] || used+c > budget {
					continue
				}
				rec(gi+1, used+c, append(acc, c))
			}
		}
		rec(0, 0, nil)
	}
	return plans
}

// groupMinChips returns, per group, the minimum chips that fit the
// collocated models' weights.
func (o *Optimizer) groupMinChips(pl pipeline.Placement) []int {
	usablePerChip := o.Prof.Sim.Chip.HBMBytes * (1 - o.Prof.Sim.P.HBMReserve)
	mins := make([]int, len(pl.Groups))
	for gi, g := range pl.Groups {
		seen := make(map[string]bool)
		var need float64
		for _, idx := range g.Stages {
			m := o.Pipe.Stages[idx].Model
			if m.Name == "" || seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			need += m.ParamBytes()
		}
		mins[gi] = roofline.Pow2Up(int(math.Ceil(need / usablePerChip)))
	}
	return mins
}

// PlanFrontier searches batching policies within one plan and returns its
// Pareto frontier, at the metrics compiling each point returns. It reuses
// both memos across calls — the optimizer's group choices and the
// profiler's stage prices — so a repeated call prices nothing twice (which
// is what core.plan_frontier_ns measures).
func (o *Optimizer) PlanFrontier(plan Plan) []SchedulePoint {
	return o.planFrontier(o.newSearchCtx(), plan, nil)
}

// planFrontier is PlanFrontier on a worker's reusable context, optionally
// filtering against the shared incumbent (inc nil disables).
//
// The tiers leave decode-merged candidates, and each is stamped with every
// formation and retrieval knob pair the search enumerates (one stamping
// when it enumerates none). priceStamps prices every stamping from the
// candidate's tier prices, bit for bit as compiling it would, and marks
// the ones compiling would refuse. A stamping is dropped when an incumbent
// point strictly dominates it. That is lossless: the incumbent holds only
// priced points that stay in the results, each of which is on the final
// frontier or strictly dominated by a point that is, so a dropped stamping
// could never be returned. Exact ties are not strict dominance, so they
// survive, and the final pass still keeps the first of them in enumeration
// order. Only the frontier of what survives becomes a Schedule
// (stampFront); nothing is compiled.
func (o *Optimizer) planFrontier(ctx *searchCtx, plan Plan, inc *perf.Incremental) []SchedulePoint {
	normChips := o.normChips(plan)
	var pts []SchedulePoint
	for bi, bIter := range ctx.iterBatches {
		cands := o.planCandidates(ctx, plan, bi)
		priced, refs := ctx.priced[:0], ctx.refs[:0]
		for ci, p := range cands {
			o.priceStamps(ctx, plan, bIter, p, normChips)
			for si, sp := range ctx.sm {
				if !sp.ok || inc != nil && inc.DominatedBy(sp.m) {
					continue
				}
				priced = append(priced, perf.Point[int32]{Metrics: sp.m, Item: int32(len(refs))})
				refs = append(refs, stampRef{cand: int32(ci), stamp: int32(si)})
			}
		}
		ctx.priced, ctx.refs = priced, refs
		pts = o.stampFront(ctx, plan, bIter, cands, pts)
	}
	return perf.Frontier(pts)
}

// stampRef names one priced stamping: its candidate and its stamping.
type stampRef struct{ cand, stamp int32 }

// stampFront stamps the stampings on the frontier of ctx.priced into
// schedules, in enumeration order, and appends them to pts at the
// metrics priceStamps gave them. Without a proxy the decode merge's prune
// has already left a frontier, so every stamping is stamped.
func (o *Optimizer) stampFront(ctx *searchCtx, plan Plan, bIter int, cands []spart, pts []SchedulePoint) []SchedulePoint {
	front := ctx.priced
	if ctx.proxy {
		front = perf.Frontier(front)
		slices.SortFunc(front, func(a, b perf.Point[int32]) int { return cmp.Compare(a.Item, b.Item) })
	}
	for _, f := range front {
		r := ctx.refs[f.Item]
		pts = append(pts, SchedulePoint{Metrics: f.Metrics, Item: ctx.stamp(plan, bIter, cands[r.cand], int(r.stamp))})
	}
	ctx.stats.Stamped += int64(len(front))
	return pts
}

// Optimize runs the full search and returns the global Pareto frontier
// with its schedules (Algorithm 1's P_RAG). The search is branch-and-
// bound: every plan gets an admissible optimistic bound (planBound), plans
// are dispatched best-bound-first so the shared incumbent frontier
// tightens early, and a plan is skipped when an incumbent point strictly
// dominates its bound, as is a priced stamping the incumbent strictly
// dominates (planFrontier); both are provably lossless for the returned
// frontier. Results are concatenated in original enumeration order before
// the final frontier pass, so the output is bit-identical to the
// exhaustive reference search, including which schedule represents each
// set of exactly-equal metric points.
//
// Plans that differ only in decode chips share their pre-decode prefix,
// and the prefix alone decides the group and retrieval tiers' Pareto-pruned
// partials. The call builds each prefix's partials once, at each iterative
// batch, in a memo the workers share (planCandidates); pruned and
// exhaustive searches alike go through it, and it lives only as long as
// the call.
func (o *Optimizer) Optimize() []SchedulePoint {
	plans := o.Plans()
	prefixes := 0
	for _, p := range plans {
		prefixes = max(prefixes, p.prefix)
	}
	memo := make([]prefixSlot, prefixes*len(o.space.iterBatches))
	workers := o.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(plans)))

	order := make([]int, len(plans))
	for i := range order {
		order[i] = i
	}
	var bounds []perf.Metrics
	var feasible []bool
	var inc *perf.Incremental
	if !o.noPrune {
		bounds = make([]perf.Metrics, len(plans))
		feasible = make([]bool, len(plans))
		terms := make(boundTerms)
		for i, p := range plans {
			bounds[i], feasible[i] = o.planBound(p, terms)
		}
		// Best-bound-first: plans whose optimistic metrics look
		// strongest are searched first, so their real frontier points
		// enter the incumbent early and prune the long tail.
		// The plan index breaks ties, which makes the sort stable.
		slices.SortFunc(order, func(i, j int) int {
			if feasible[i] != feasible[j] {
				if feasible[i] {
					return -1
				}
				return 1
			}
			bi, bj := &bounds[i], &bounds[j]
			if c := cmp.Compare(bj.QPSPerChip, bi.QPSPerChip); c != 0 {
				return c
			}
			if c := cmp.Compare(bi.TTFT, bj.TTFT); c != 0 {
				return c
			}
			if c := cmp.Compare(bi.TPOT, bj.TPOT); c != 0 {
				return c
			}
			return cmp.Compare(i, j)
		})
		inc = &perf.Incremental{}
	}

	results := make([][]SchedulePoint, len(plans))
	// Each worker counts into its own context's stats; they are summed
	// once every worker is done. Workers claim plans in order's sequence
	// through one shared cursor: most plans are pruned by a single probe,
	// so a claim must cost no more than an atomic add.
	ctxs := make([]*searchCtx, workers)
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := o.newSearchCtx()
			ctx.memo = memo
			ctxs[w] = ctx
			var front []perf.Metrics // a plan frontier's metrics, inserted as one
			for {
				k := int(cursor.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				if inc == nil {
					ctx.stats.Searched++
					results[i] = o.planFrontier(ctx, plans[i], nil)
					continue
				}
				if !feasible[i] {
					continue // no schedule of the plan compiles
				}
				if inc.DominatedBy(bounds[i]) {
					ctx.stats.PrunedPlans++
					continue // every completion strictly dominated
				}
				ctx.stats.Searched++
				pts := o.planFrontier(ctx, plans[i], inc)
				results[i] = pts
				front = front[:0]
				for _, p := range pts {
					front = append(front, p.Metrics)
				}
				inc.Insert(front...)
			}
		}()
	}
	wg.Wait()

	var all []SchedulePoint
	for _, r := range results {
		all = append(all, r...)
	}
	front := perf.Frontier(all)

	st := SearchStats{Plans: len(plans)}
	for _, c := range ctxs {
		st.PrunedPlans += c.stats.PrunedPlans
		st.Searched += c.stats.Searched
		st.Stamped += c.stats.Stamped
		st.groupPairs += c.stats.groupPairs
		st.retrPairs += c.stats.retrPairs
		st.iterRounds += c.stats.iterRounds
		st.decFetches += c.stats.decFetches
	}
	if inc != nil {
		for i := range plans {
			if !feasible[i] {
				st.Infeasible++
			}
		}
		st.fillBoundGaps(front, bounds, feasible)
	}
	o.smu.Lock()
	o.stats = st
	o.smu.Unlock()
	return front
}

// fillBoundGaps computes the per-objective bound-to-achieved ratios: the
// frontier's best value on each axis against the best admissible bound
// over the feasible plans. Each ratio is >= 1 when both sides are
// positive (the bound is optimistic by construction) and 0 when either
// side is undefined (empty frontier, no feasible plan).
func (s *SearchStats) fillBoundGaps(front []SchedulePoint, bounds []perf.Metrics, feasible []bool) {
	if len(front) == 0 {
		return
	}
	var bTTFT, bTPOT, bQPS float64
	seen := false
	for i, b := range bounds {
		if !feasible[i] {
			continue
		}
		if !seen || b.TTFT < bTTFT {
			bTTFT = b.TTFT
		}
		if !seen || b.TPOT < bTPOT {
			bTPOT = b.TPOT
		}
		if !seen || b.QPSPerChip > bQPS {
			bQPS = b.QPSPerChip
		}
		seen = true
	}
	if !seen {
		return
	}
	aTTFT, aTPOT, aQPS := front[0].Metrics.TTFT, front[0].Metrics.TPOT, front[0].Metrics.QPSPerChip
	for _, p := range front[1:] {
		aTTFT = math.Min(aTTFT, p.Metrics.TTFT)
		aTPOT = math.Min(aTPOT, p.Metrics.TPOT)
		aQPS = math.Max(aQPS, p.Metrics.QPSPerChip)
	}
	if bTTFT > 0 {
		s.TTFTGap = aTTFT / bTTFT
	}
	if bTPOT > 0 {
		s.TPOTGap = aTPOT / bTPOT
	}
	if aQPS > 0 {
		s.QPSGap = bQPS / aQPS
	}
}

// BaselineFrontier evaluates the §7.1 comparison system: all additional
// RAG components collocated with the main LLM's prefix tier, prefix and
// decode chips split 1:1 over the full budget, retrieval on the minimum
// server count; batching policies are still tuned (the baseline is "an
// extension of LLM-only systems", not a strawman with silly batches).
func (o *Optimizer) BaselineFrontier() []SchedulePoint {
	return o.PlanFrontier(o.baselinePlan())
}

// baselinePlan is the plan BaselineFrontier searches.
func (o *Optimizer) baselinePlan() Plan {
	budget := o.opts.Cluster.XPUs()
	half := budget / 2
	if half < 1 {
		half = 1
	}
	servers := 0
	if o.Pipe.Index(pipeline.KindRetrieval) >= 0 {
		servers = o.Prof.MinRetrievalServers()
	}
	return Plan{
		Placement:   o.Pipe.BaselinePlacement(),
		GroupChips:  []int{half},
		DecodeChips: half,
		Servers:     servers,
	}
}
