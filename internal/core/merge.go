package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rago/internal/engine"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/retrieval"
	"rago/internal/roofline"
	"rago/internal/stageperf"
)

// spart is one partially assembled schedule during the per-plan batch
// search, compacted for the hot loop: metrics accumulate inline (TTFT
// adds, TPOT is set only by decode, throughput is a running min) and the
// group-choice chain is an arena parent pointer instead of a copied
// Groups slice, so extending a partial allocates nothing. Because the
// components contribute independently, Pareto-pruning partials between
// components is lossless: a dominated partial stays dominated after any
// extension.
type spart struct {
	ttft float64
	tpot float64
	qps  float64
	// node indexes searchCtx.nodes (the last group's choice; parents
	// chain backwards through the groups), -1 before any group commits.
	node int32
	// retrB, decB, decR carry the scalar schedule fields until the
	// partial is stamped.
	retrB int32
	decB  int32
	decR  int32
}

// gnode is one arena entry of the group-choice chain.
type gnode struct {
	parent   int32
	batch    int32
	replicas []int // memo-owned; copied out by own
}

// qpsUnbounded stands in for "no throughput constraint yet"; finite so the
// shared Pareto machinery (which rejects infinities) can prune partials.
const qpsUnbounded = 1e15

// groupChoice is one evaluated batching/replication option for a whole
// placement group: the latency added to TTFT, the per-request occupancy of
// the group, and the per-stage replica counts that realize it.
type groupChoice struct {
	ttft     float64
	occ      float64
	batch    int
	replicas []int
}

// searchCtx is one worker's reusable state for the per-plan search:
// the scratch metrics evaluator, the partial/arena buffers, and the
// hoisted power-of-two batch ranges. Not safe for concurrent use.
type searchCtx struct {
	o  *Optimizer
	ev *engine.Evaluator

	preBatches  []int
	retrBatches []int
	decBatches  []int
	iterBatches []int

	// Formation search dimensions (batch policy x chunk quantum), and
	// whether any of them — or a shape sample — departs from the
	// historical FIFO/unchunked/unshaped search.
	policies   []engine.BatchPolicy
	quanta     []int
	formActive bool

	// Retrieval search dimensions (nprobe x shard fanout), whether they
	// depart from the base-configuration search, and the cheapest searched
	// knob pair — the pair whose tuned scan is optimistic against every
	// stamping, used for the partials' proxy retrieval pricing.
	nprobes    []int
	fanouts    []int
	retrActive bool
	cheapNP    int
	cheapFO    int

	nodes  []gnode
	parts  []spart
	next   []spart
	stairs []partialCorner
	idx    []int32

	probeGroups []GroupSchedule
	// scratch is the schedule every stamped candidate is evaluated from
	// (stamp); only candidates that survive the incumbent filter are
	// copied out of it (own).
	scratch Schedule
}

type partialCorner struct{ tpot, qps float64 }

// newSearchCtx builds a worker context. The scratch evaluator runs the
// exact compile arithmetic Assembler.Evaluate runs, without per-schedule
// plan allocation; on the (already validated) pipelines the optimizer
// builds it cannot fail, but a failure falls back to the Assembler.
func (o *Optimizer) newSearchCtx() *searchCtx {
	ctx := &searchCtx{
		o:           o,
		preBatches:  roofline.Pow2Range(1, o.Opts.MaxPreBatch),
		retrBatches: roofline.Pow2Range(1, o.Opts.MaxRetrievalBatch),
		decBatches:  roofline.Pow2Range(1, o.Opts.MaxDecodeBatch),
		iterBatches: []int{0},
	}
	if o.Pipe.Schema.Iterative() {
		ctx.iterBatches = roofline.Pow2Range(1, o.Opts.MaxDecodeBatch)
	}
	ctx.policies = o.Opts.Policies
	if len(ctx.policies) == 0 {
		ctx.policies = []engine.BatchPolicy{engine.PolicyFIFO}
	}
	ctx.quanta = o.Opts.ChunkQuanta
	if len(ctx.quanta) == 0 {
		ctx.quanta = []int{0}
	}
	ctx.formActive = len(o.Opts.Shapes) > 0 ||
		len(ctx.policies) != 1 || ctx.policies[0] != engine.PolicyFIFO ||
		len(ctx.quanta) != 1 || ctx.quanta[0] != 0
	ctx.nprobes, ctx.fanouts = o.searchedKnobs()
	ctx.retrActive = len(ctx.nprobes) != 1 || ctx.nprobes[0] != 0 ||
		len(ctx.fanouts) != 1 || ctx.fanouts[0] != 0
	ctx.cheapNP, ctx.cheapFO = o.cheapestKnobs(ctx.nprobes, ctx.fanouts)
	if ev, err := engine.NewEvaluator(o.Pipe, o.Prof); err == nil {
		ctx.ev = ev
	}
	return ctx
}

// searchedKnobs returns the normalized retrieval knob sets: the configured
// dimensions, or the single base configuration when unset. A retrieval-free
// pipeline searches only the base pair regardless — stamping knobs onto its
// schedules would fail validation without changing any metric.
func (o *Optimizer) searchedKnobs() (nprobes, fanouts []int) {
	nprobes, fanouts = o.Opts.NProbes, o.Opts.ShardFanouts
	if o.Pipe.Index(pipeline.KindRetrieval) < 0 {
		nprobes, fanouts = nil, nil
	}
	if len(nprobes) == 0 {
		nprobes = []int{0}
	}
	if len(fanouts) == 0 {
		fanouts = []int{0}
	}
	return nprobes, fanouts
}

// cheapestKnobs picks the searched (nprobe, fanout) pair with the smallest
// tuned scan and gather cost — the pair every other stamping prices at or
// above, so proxy pricing at it stays optimistic. The two axes minimize
// independently: scan volume scales with effective nprobe and with effective
// fanout, gather with effective fanout alone.
func (o *Optimizer) cheapestKnobs(nprobes, fanouts []int) (np, fo int) {
	effNP := func(n int) int {
		if n > 0 {
			return n
		}
		return retrieval.BaseNProbe
	}
	shards := o.Prof.Shards
	effFO := func(f int) int {
		if shards > 1 && f >= 1 && f <= shards {
			return f
		}
		if shards > 1 {
			return shards
		}
		return 1
	}
	np, fo = nprobes[0], fanouts[0]
	for _, n := range nprobes[1:] {
		if effNP(n) < effNP(np) {
			np = n
		}
	}
	for _, f := range fanouts[1:] {
		if effFO(f) < effFO(fo) {
			fo = f
		}
	}
	return np, fo
}

// evaluate assembles end-to-end metrics for one schedule through the
// scratch evaluator, applying the Assembler's QPS/chip normalization.
// Results are bit-identical to Assembler.Evaluate.
func (c *searchCtx) evaluate(s Schedule) (perf.Metrics, bool) {
	if c.ev == nil {
		return c.o.Asm.Evaluate(s)
	}
	var m perf.Metrics
	var ok bool
	if len(c.o.Opts.Shapes) > 0 {
		m, ok = c.ev.EvaluateShaped(s, c.o.Opts.Shapes)
	} else {
		m, ok = c.ev.Evaluate(s)
	}
	if !ok {
		return perf.Metrics{}, false
	}
	if n := c.o.Asm.NormalizeChips; n > 0 {
		m.QPSPerChip = m.QPS / float64(n)
	}
	return m, true
}

// stamp expands a surviving partial into the worker's scratch schedule,
// walking the group-choice chain backwards. The group storage is reused
// across calls and the replica slices alias the shared memo (evaluation
// only reads them), so stamping allocates nothing; the schedule is valid
// until the next stamp, and own copies out the ones worth keeping.
func (c *searchCtx) stamp(plan Plan, bIter int, p spart) *Schedule {
	ng := len(plan.Placement.Groups)
	groups := c.scratch.Groups
	if ng > 0 && cap(groups) < ng {
		groups = make([]GroupSchedule, ng)
	}
	groups = groups[:ng]
	node := p.node
	for gi := ng - 1; gi >= 0; gi-- {
		nd := c.nodes[node]
		groups[gi] = GroupSchedule{
			Stages:   plan.Placement.Groups[gi].Stages,
			Chips:    plan.GroupChips[gi],
			Batch:    int(nd.batch),
			Replicas: nd.replicas,
		}
		node = nd.parent
	}
	c.scratch = Schedule{
		Groups:           groups,
		RetrievalServers: plan.Servers,
		RetrievalBatch:   int(p.retrB),
		DecodeChips:      plan.DecodeChips,
		DecodeBatch:      int(p.decB),
		DecodeReplicas:   int(p.decR),
		IterativeBatch:   bIter,
	}
	return &c.scratch
}

// own copies a stamped schedule out for retention, so the result aliases
// neither the scratch nor the memo.
func own(s Schedule) Schedule {
	if len(s.Groups) == 0 {
		s.Groups = nil
		return s
	}
	groups := make([]GroupSchedule, len(s.Groups))
	for i, g := range s.Groups {
		g.Replicas = append([]int(nil), g.Replicas...)
		groups[i] = g
	}
	s.Groups = groups
	return s
}

// planCandidates enumerates batch policies for one plan at a fixed
// iterative batch (bIter == 0 for non-iterative workloads), pruning
// dominated combinations after each component. When inc is non-nil, the
// branch-and-bound pass additionally discards partials whose optimistic
// completion (the plan bound with the partial's own throughput ceiling,
// relaxed by boundEps for float drift) is strictly dominated by the
// incumbent frontier — lossless for the final frontier. The surviving
// partials are returned in the worker's reusable buffer (valid until the
// next call); callers stamp and evaluate them.
func (o *Optimizer) planCandidates(ctx *searchCtx, plan Plan, bIter int, inc *perf.Incremental, bound perf.Metrics) []spart {
	prefixIdx := o.Pipe.Index(pipeline.KindPrefix)
	retrIdx := o.Pipe.Index(pipeline.KindRetrieval)
	decIdx := o.Pipe.Index(pipeline.KindDecode)

	// Iterative occupancy terms for this bIter (coupled to the prefix
	// group's chips and the retrieval servers, both fixed by the plan).
	var iterPrefOcc, iterRetrOcc float64
	if bIter > 0 {
		n := float64(o.Pipe.Schema.RetrievalFrequency - 1)
		prefChips, ok := o.planPrefixChips(plan, prefixIdx)
		if !ok || retrIdx < 0 {
			return nil
		}
		rt := o.Prof.Eval(o.Pipe.Stages[retrIdx].Tuned(ctx.cheapNP, ctx.cheapFO), plan.Servers, bIter)
		if !rt.OK {
			return nil
		}
		iterStage := o.Pipe.Stages[prefixIdx]
		iterStage.SeqLen = o.Pipe.Schema.RetrievedTokens()
		var pt stageperf.Point
		for _, cand := range o.Prof.Candidates(iterStage, prefChips, bIter) {
			if !pt.OK || cand.QPS > pt.QPS {
				pt = cand
			}
		}
		if !pt.OK {
			return nil
		}
		iterRetrOcc = n / rt.QPS
		iterPrefOcc = n / pt.QPS
	}

	normChips := float64(plan.chips())
	if o.Opts.NormalizeChips > 0 {
		normChips = float64(o.Opts.NormalizeChips)
	}

	ctx.nodes = ctx.nodes[:0]
	parts := append(ctx.parts[:0], spart{qps: qpsUnbounded, node: -1})
	next := ctx.next[:0]

	// Pre-decode XPU groups.
	for gi, g := range plan.Placement.Groups {
		chips := plan.GroupChips[gi]
		occExtra := 0.0
		if groupHasStage(g, prefixIdx) {
			occExtra = iterPrefOcc
		}
		choices := o.groupChoicesFor(ctx, g, chips, plan.Servers, prefixIdx, occExtra)
		if len(choices) == 0 {
			ctx.parts, ctx.next = parts, next
			return nil
		}
		next = next[:0]
		for _, c := range choices {
			for _, p := range parts {
				ctx.nodes = append(ctx.nodes, gnode{parent: p.node, batch: int32(c.batch), replicas: c.replicas})
				np := p
				np.ttft += c.ttft
				np.qps = math.Min(np.qps, 1/c.occ)
				np.node = int32(len(ctx.nodes) - 1)
				next = append(next, np)
			}
		}
		parts = prunePartialsInto(ctx, next, parts[:0])
		parts = ctx.pruneAgainstIncumbent(parts, inc, bound, normChips)
		if len(parts) == 0 {
			ctx.parts, ctx.next = parts, next
			return nil
		}
	}

	// Retrieval tier. Partials price the cheapest searched knob pair —
	// identical to the base stage when the knob dimensions are off, and an
	// optimistic proxy every stamping re-prices upward when they are on.
	if retrIdx >= 0 {
		transfer := o.Prof.RetrievalTransferLatency()
		rstage := o.Pipe.Stages[retrIdx].Tuned(ctx.cheapNP, ctx.cheapFO)
		next = next[:0]
		for _, b := range ctx.retrBatches {
			rt := o.Prof.Eval(rstage, plan.Servers, b)
			if !rt.OK {
				continue
			}
			tierQPS := 1 / (1/rt.QPS + iterRetrOcc)
			for _, p := range parts {
				np := p
				np.ttft += rt.Latency + transfer
				np.qps = math.Min(np.qps, tierQPS)
				np.retrB = int32(b)
				next = append(next, np)
			}
		}
		parts = prunePartialsInto(ctx, next, parts[:0])
		parts = ctx.pruneAgainstIncumbent(parts, inc, bound, normChips)
		if len(parts) == 0 {
			ctx.parts, ctx.next = parts, next
			return nil
		}
	}

	// Decode tier (sets TPOT).
	outTokens := float64(o.Pipe.Stages[decIdx].OutTokens)
	next = next[:0]
	for _, bd := range ctx.decBatches {
		for _, cand := range o.Prof.Candidates(o.Pipe.Stages[decIdx], plan.DecodeChips, bd) {
			var stall float64
			if bIter > 0 {
				probe := ctx.probeSchedule(plan, bIter)
				probe.DecodeBatch = bd
				probe.DecodeReplicas = cand.Replicas
				ic, ok := engine.IterativeCost(o.Pipe, o.Prof, probe)
				if !ok {
					continue
				}
				stall = ic.StallPerRequest
			}
			genTime := cand.Latency + stall
			tierQPS := float64(bd) / genTime
			tpot := genTime / outTokens
			for _, p := range parts {
				np := p
				np.tpot = tpot
				np.qps = math.Min(np.qps, tierQPS)
				np.decB = int32(bd)
				np.decR = int32(cand.Replicas)
				next = append(next, np)
			}
		}
	}
	parts = prunePartialsInto(ctx, next, parts[:0])
	ctx.parts, ctx.next = parts, next
	return parts
}

// probeSchedule builds the minimal schedule IterativeCost needs from the
// plan: the stall model reads only the prefix group's chip count, the
// retrieval servers, and the decode/iterative configuration, never the
// groups' batch policies.
func (c *searchCtx) probeSchedule(plan Plan, bIter int) Schedule {
	c.probeGroups = c.probeGroups[:0]
	for gi, g := range plan.Placement.Groups {
		c.probeGroups = append(c.probeGroups, GroupSchedule{
			Stages: g.Stages,
			Chips:  plan.GroupChips[gi],
			Batch:  1,
		})
	}
	return Schedule{
		Groups:           c.probeGroups,
		RetrievalServers: plan.Servers,
		DecodeChips:      plan.DecodeChips,
		IterativeBatch:   bIter,
	}
}

// pruneAgainstIncumbent drops partials whose optimistic completion bound —
// the plan's admissible bound capped by the partial's own throughput, with
// a boundEps relaxation absorbing accumulation-order float drift — is
// strictly dominated by the shared incumbent frontier. inc == nil (the
// exhaustive reference) disables the pass. Every partial's bound shares
// the plan's TTFT, TPOT and recall, so one incumbent scan yields the two
// QPS/chip thresholds strict dominance reduces to (QPSThresholds).
func (c *searchCtx) pruneAgainstIncumbent(parts []spart, inc *perf.Incremental, bound perf.Metrics, normChips float64) []spart {
	if inc == nil || len(parts) == 0 {
		return parts
	}
	shared := relax(bound, boundEps)
	gt, ge := inc.QPSThresholds(shared.TTFT, shared.TPOT, shared.Recall)
	kept := parts[:0]
	for _, p := range parts {
		x := relax(perf.Metrics{QPSPerChip: math.Min(p.qps, bound.QPS) / normChips}, boundEps).QPSPerChip
		if !(x < gt || x <= ge) {
			kept = append(kept, p)
		}
	}
	if d := len(parts) - len(kept); d > 0 {
		c.o.prunedPartials.Add(int64(d))
	}
	return kept
}

// groupHasStage reports whether the placement group serves stage idx.
func groupHasStage(g pipeline.Group, idx int) bool {
	for _, s := range g.Stages {
		if s == idx {
			return true
		}
	}
	return false
}

// groupKey memoizes pruned group choices across plans: the choice set
// depends only on the group's stage set, its chip count, the retrieval
// server count (pause pricing), and the iterative prefix occupancy — not
// on the rest of the plan, which is why the same predecode group recurs
// across every decode-chip and sibling-allocation variation.
type groupKey struct {
	mask    uint64
	chips   int
	servers int
	occBits uint64
}

// groupChoicesFor returns the Pareto-pruned batching/replication choices
// for one placement group on chips, memoized across plans. The returned
// slice is shared: callers must not mutate it.
func (o *Optimizer) groupChoicesFor(ctx *searchCtx, g pipeline.Group, chips, servers, prefixIdx int, iterPrefOcc float64) []groupChoice {
	key := groupKey{chips: chips, servers: servers, occBits: math.Float64bits(iterPrefOcc)}
	for _, s := range g.Stages {
		key.mask |= 1 << uint(s)
	}
	o.gmu.Lock()
	if o.gcache == nil {
		o.gcache = make(map[groupKey][]groupChoice)
	}
	cs, ok := o.gcache[key]
	o.gmu.Unlock()
	if ok {
		return cs
	}
	var choices []groupChoice
	for _, b := range ctx.preBatches {
		pause, ok := engine.RetrievalPause(o.Pipe, o.Prof, g.Stages, servers, b, ctx.cheapNP, ctx.cheapFO)
		if !ok {
			continue
		}
		choices = append(choices, o.groupChoices(g, chips, b, prefixIdx, iterPrefOcc, pause)...)
	}
	choices = pruneGroupChoices(choices)
	o.gmu.Lock()
	o.gcache[key] = choices
	o.gmu.Unlock()
	return choices
}

// groupChoices evaluates every per-stage replication combination of a
// group at one batch size, returning (ttft, occupancy) aggregates. pause
// is the per-request retrieval wait for groups spanning the retrieval
// stage (zero otherwise).
func (o *Optimizer) groupChoices(g pipeline.Group, chips, batch, prefixIdx int, iterPrefOcc, pause float64) []groupChoice {
	perStage := make([][]stageperf.Point, len(g.Stages))
	for i, idx := range g.Stages {
		cands := o.Prof.Candidates(o.Pipe.Stages[idx], chips, batch)
		// Time-multiplexed groups run one phase at a time (Fig. 14):
		// during a phase only that batch's work exists, so data-
		// parallel replication is bounded by the work items available
		// — batch*Items forward passes for encoder-type stages, batch
		// sequences for autoregressive ones. This is why collocating
		// an autoregressive rewriter with the prefix underutilizes
		// wide pools at small batches (§7.1). Dedicated single-stage
		// pools serve a stream of batches and replicate freely.
		// Candidates returns the profiler's shared cache slice, so the
		// filter builds a fresh slice instead of compacting in place.
		if len(g.Stages) > 1 {
			limit := engine.MaxPhaseReplicas(o.Pipe.Stages[idx], batch)
			kept := make([]stageperf.Point, 0, len(cands))
			for _, c := range cands {
				if c.Replicas <= limit {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
		if len(cands) == 0 {
			return nil
		}
		perStage[i] = cands
	}
	var out []groupChoice
	var rec func(i int, ttft, occ float64, reps []int)
	rec = func(i int, ttft, occ float64, reps []int) {
		if i == len(perStage) {
			out = append(out, groupChoice{
				ttft:     ttft,
				occ:      occ + pause,
				batch:    batch,
				replicas: append([]int(nil), reps...),
			})
			return
		}
		for _, pt := range perStage[i] {
			extra := 0.0
			if g.Stages[i] == prefixIdx {
				extra = iterPrefOcc
			}
			rec(i+1, ttft+pt.Latency, occ+1/pt.QPS+extra, append(reps, pt.Replicas))
		}
	}
	rec(0, 0, 0, nil)
	return out
}

// pruneGroupChoices keeps Pareto-optimal (ttft, occupancy) choices via a
// sort-and-staircase sweep: sorted by (ttft asc, occ asc), a choice
// survives iff it strictly lowers the running occupancy minimum, or
// exactly duplicates the choice that set it (equal points dominate
// neither way). Output preserves input order, matching the O(n²) pairwise
// reference the differential test keeps around.
func pruneGroupChoices(cs []groupChoice) []groupChoice {
	if len(cs) <= 1 {
		return cs
	}
	idx := make([]int, len(cs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := cs[idx[a]], cs[idx[b]]
		if x.ttft != y.ttft {
			return x.ttft < y.ttft
		}
		return x.occ < y.occ
	})
	keep := make([]bool, len(cs))
	minOcc, minTTFT := math.Inf(1), math.Inf(1)
	for _, i := range idx {
		c := cs[i]
		if c.occ < minOcc {
			keep[i] = true
			minOcc, minTTFT = c.occ, c.ttft
		} else if c.occ == minOcc && c.ttft == minTTFT {
			keep[i] = true
		}
	}
	out := make([]groupChoice, 0, len(cs))
	for i, c := range cs {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}

// planPrefixChips returns the chip count of the plan group holding the
// main prefix stage.
func (o *Optimizer) planPrefixChips(plan Plan, prefixIdx int) (int, bool) {
	for gi, g := range plan.Placement.Groups {
		for _, idx := range g.Stages {
			if idx == prefixIdx {
				return plan.GroupChips[gi], true
			}
		}
	}
	return 0, false
}

// prunePartialsInto keeps the Pareto-optimal partials (lower TTFT and
// TPOT, higher throughput), appending survivors to dst and returning it.
// It is perf.Frontier specialized to the compact spart representation —
// identical validity filtering, identical stable (TTFT, TPOT, qps)
// ordering, identical staircase including exact-duplicate collapse — so
// the surviving set and its order match what the generic path produced,
// without boxing each partial into a Point and re-sorting large structs.
// src is reordered in place.
func prunePartialsInto(ctx *searchCtx, src []spart, dst []spart) []spart {
	if len(src) <= 1 {
		return append(dst, src...)
	}
	valid := src[:0]
	for _, p := range src {
		if partialValid(p) {
			valid = append(valid, p)
		}
	}
	// Sort an index slice instead of the partials themselves: stability
	// (which the exact-duplicate collapse needs) comes from the final
	// index tiebreak, and the unstable pdqsort only swaps 4-byte indices
	// instead of rotating 40-byte structs.
	idx := ctx.idx[:0]
	for i := range valid {
		idx = append(idx, int32(i))
	}
	ctx.idx = idx
	slices.SortFunc(idx, func(a, b int32) int {
		x, y := &valid[a], &valid[b]
		if c := cmpFloat(x.ttft, y.ttft); c != 0 {
			return c
		}
		if c := cmpFloat(x.tpot, y.tpot); c != 0 {
			return c
		}
		if c := cmpFloat(y.qps, x.qps); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	kept := idx[:0] // kept indices overwrite the consumed prefix
	stairs := ctx.stairs[:0]
	for _, pi := range idx {
		p := &valid[pi]
		ins := sort.Search(len(stairs), func(k int) bool { return stairs[k].tpot > p.tpot })
		if ins > 0 && stairs[ins-1].qps >= p.qps {
			continue // dominated (or an exact duplicate)
		}
		kept = append(kept, pi)
		// Replace the corners in [ins, end) — now dominated — with the
		// new corner, in place.
		end := ins
		for end < len(stairs) && stairs[end].qps <= p.qps {
			end++
		}
		stairs = slices.Replace(stairs, ins, end, partialCorner{p.tpot, p.qps})
	}
	ctx.stairs = stairs
	// Output order is (ttft asc, qps desc), stable over the sweep order —
	// which, for survivors tied on both keys, is (tpot asc, index asc).
	slices.SortFunc(kept, func(a, b int32) int {
		x, y := &valid[a], &valid[b]
		if c := cmpFloat(x.ttft, y.ttft); c != 0 {
			return c
		}
		if c := cmpFloat(y.qps, x.qps); c != 0 {
			return c
		}
		if c := cmpFloat(x.tpot, y.tpot); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, k := range kept {
		dst = append(dst, valid[k])
	}
	return dst
}

// cmpFloat is cmp.Compare for the validated (NaN-free) partial metrics,
// without the NaN tests that cost the hot sorts measurable time.
func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// partialValid mirrors perf.Metrics.Valid on a partial's accumulated
// metrics.
func partialValid(p spart) bool {
	for _, v := range []float64{p.ttft, p.tpot, p.qps} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return true
}
