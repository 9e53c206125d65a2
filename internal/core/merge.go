package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

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
	// exact is, in a finished prefixEntry, the partial's TTFT as the
	// engine's critical-path walk prices it — bit-identical to the compiled
	// TTFT of every candidate extending it, where ttft's group-by-group sum
	// may differ by an ulp. While a prefix frontier is built it carries the
	// retrieval step's latency the walk needs.
	exact float64
	// node indexes searchCtx.nodes (the last group's choice; parents
	// chain backwards through the groups) while a prefix frontier is
	// built, -1 before any group commits. In a finished prefixEntry it is
	// the partial's row in the entry's picks slab.
	node int32
	// retrB, decB, decR carry the scalar schedule fields until the
	// partial is stamped.
	retrB int32
	decB  int32
	decR  int32
}

// gnode is one arena entry of the group-choice chain.
type gnode struct {
	parent int32
	pick   *groupChoice // into gcache's memo; copied out by own
}

// prefixEntry is one pre-decode frontier: the partials a (placement,
// group chips, servers, iterative batch) prefix leaves after the group and
// retrieval tiers' Pareto prune. The prefix fixes everything those tiers
// price, so every decode-chip variant of it extends the same entry. picks
// is one flat slab holding each partial's group choices: row i (the
// partial's node) is picks[i*ng : (i+1)*ng], pointing into gcache's memo.
type prefixEntry struct {
	parts       []spart
	picks       []*groupChoice
	iterPrefOcc float64 // carried by the prefix group's choices
}

// prefixSlot is one prefix's entry in an Optimize call's memo. The first
// worker to reach the prefix fills it; any other waits for that fill.
type prefixSlot struct {
	once sync.Once
	e    prefixEntry
}

// decPoint is one decode-tier operating point: the TPOT it sets and the
// throughput it caps, with the batch and replica count that realize it,
// the iterative stall per request, and the two as a stamping prices them
// (shapedDecode), once priced. A memoized stall-free point also keeps its
// generation latency, which an iterative search stalls (decodePoints).
type decPoint struct {
	tpot, qps     float64
	lat, stall    float64
	shTPOT, shQPS float64
	priced        bool
	batch         int32
	replicas      int32
}

// extend returns p extended by the decode point, as the tier's cross
// product holds the pair.
func (d *decPoint) extend(p spart) spart {
	p.tpot = d.tpot
	p.qps = math.Min(p.qps, d.qps)
	p.decB, p.decR = d.batch, d.replicas
	return p
}

// decTier is a decode tier's points and the order mergeDecode walks: order
// holds the viable points (TPOT finite and not negative, throughput not
// negative) by TPOT ascending, then throughput descending, then index, and
// stair the positions in order whose throughput exceeds every earlier one's.
type decTier struct {
	pts          []decPoint
	order, stair []int32
}

// sortStair orders the tier's points and finds its staircase.
func (t *decTier) sortStair() {
	t.order, t.stair = t.order[:0], t.stair[:0]
	for i, d := range t.pts {
		if d.tpot >= 0 && d.tpot <= math.MaxFloat64 && d.qps >= 0 {
			t.order = append(t.order, int32(i))
		}
	}
	slices.SortStableFunc(t.order, func(a, b int32) int {
		if c := cmpFloat(t.pts[a].tpot, t.pts[b].tpot); c != 0 {
			return c
		}
		return cmpFloat(t.pts[b].qps, t.pts[a].qps)
	})
	top := math.Inf(-1)
	for pos, i := range t.order {
		if t.pts[i].qps > top {
			t.stair, top = append(t.stair, int32(pos)), t.pts[i].qps
		}
	}
}

// qpsUnbounded stands in for "no throughput constraint yet"; finite so the
// shared Pareto machinery (which rejects infinities) can prune partials.
const qpsUnbounded = 1e15

// groupChoice is one evaluated batching/replication option for a whole
// placement group: the latency added to TTFT, the per-request occupancy of
// the group (its retrieval pause, at the cheapest knob pair, included), and
// the per-stage replica counts that realize it with their batch latencies
// and occupancy terms.
type groupChoice struct {
	ttft     float64
	occ      float64
	pause    float64
	batch    int
	replicas []int
	lats     []float64
	inv      []float64
}

// searchSpace is what the search derives from the options and the pipeline
// alone. NewOptimizer builds it once; every worker shares it read-only.
type searchSpace struct {
	// The power-of-two batch ladders, and the iterative batches the search
	// tries: {0} for a single-retrieval workload.
	preBatches  []int
	retrBatches []int
	decBatches  []int
	iterBatches []int

	// The dimensions stamped onto every decode-merged candidate, in option
	// order: formations (batch policy x chunk quantum) and retrieval knob
	// pairs (nprobe x shard fanout). Stamping si is forms[si/len(knobs)]
	// with knobs[si%len(knobs)]. A retrieval-free pipeline searches only
	// the base pair: knobs on its schedules would fail validation.
	forms []formOpt
	knobs []knobOpt
	// proxy says the tiers price a stand-in — FIFO, unchunked, unshaped,
	// the cheapest knob pair — that a shape sample or a searched formation
	// or knob pair departs from, so priceStamps re-prices every stamping.
	proxy bool

	// The plan bounds' formation relaxation terms: whether a shape sample
	// re-prices batches, the positive chunk quanta, and the sample's
	// minimum raw prompt / padded prompt / output length (schema constants
	// for unshaped entries).
	shaped                    bool
	chunks                    []int
	minPrompt, padMin, minOut int

	// preds and retrIdxs feed the critical-path walk that prices a finished
	// prefix's exact TTFTs: the stage graph and its retrieval stages.
	preds    [][]int
	retrIdxs []int
}

// A formation and a retrieval knob pair (0: the base configuration).
type (
	formOpt struct {
		policy  engine.BatchPolicy
		quantum int
	}
	knobOpt struct{ nprobe, fanout int }
)

func newSearchSpace(pipe pipeline.Pipeline, opts Options) searchSpace {
	orBase := func(xs []int) []int { // unset: the base configuration only
		if len(xs) == 0 {
			return []int{0}
		}
		return xs
	}
	sp := searchSpace{
		preBatches:  roofline.Pow2Range(1, opts.MaxPreBatch),
		retrBatches: roofline.Pow2Range(1, opts.MaxRetrievalBatch),
		decBatches:  roofline.Pow2Range(1, opts.MaxDecodeBatch),
		iterBatches: []int{0},
		shaped:      len(opts.Shapes) > 0,
		preds:       pipe.Preds(),
		retrIdxs:    pipe.Indices(pipeline.KindRetrieval),
	}
	if pipe.Schema.Iterative() {
		sp.iterBatches = sp.decBatches
	}
	policies := opts.Policies
	if len(policies) == 0 {
		policies = []engine.BatchPolicy{engine.PolicyFIFO}
	}
	for _, pol := range policies {
		for _, q := range orBase(opts.ChunkQuanta) {
			sp.forms = append(sp.forms, formOpt{pol, q})
		}
	}
	nprobes, fanouts := []int{0}, []int{0}
	if len(sp.retrIdxs) > 0 {
		nprobes, fanouts = orBase(opts.NProbes), orBase(opts.ShardFanouts)
	}
	for _, np := range nprobes {
		for _, fo := range fanouts {
			sp.knobs = append(sp.knobs, knobOpt{np, fo})
		}
	}
	sp.proxy = sp.shaped || len(sp.forms) != 1 || sp.forms[0] != formOpt{} || len(sp.knobs) != 1 || sp.knobs[0] != knobOpt{}

	for _, q := range opts.ChunkQuanta {
		if q > 0 {
			sp.chunks = append(sp.chunks, q)
		}
	}
	schemaPrompt := pipe.Schema.PrefixTokens
	schemaOut := pipe.Stages[pipe.Index(pipeline.KindDecode)].OutTokens
	sp.minPrompt, sp.minOut = schemaPrompt, schemaOut
	for _, s := range opts.Shapes {
		pt, out := s.PromptTokens, s.OutputTokens
		if pt <= 0 {
			pt = schemaPrompt
		}
		if out <= 0 {
			out = schemaOut
		}
		sp.minPrompt = min(sp.minPrompt, pt)
		sp.minOut = min(sp.minOut, out)
	}
	sp.minOut = max(sp.minOut, 1)
	sp.padMin = engine.PadTokens(sp.minPrompt)
	return sp
}

// searchCtx is one worker's reusable state for the per-plan search: the
// shared search space, the evaluator that prices stampings' prefix steps
// and decode paces, the partial/arena buffers and the worker's search
// counters. Not safe for concurrent use.
type searchCtx struct {
	*searchSpace
	ev *engine.Evaluator

	// The cheapest searched knob pair — the pair whose tuned scan is
	// optimistic against every stamping, used for the partials' proxy
	// retrieval pricing — and each knob pair's measured recall. Both read
	// the profiler's retrieval configuration, so each search derives them
	// afresh.
	cheapNP int
	cheapFO int
	recalls []float64

	// memo is the running Optimize call's prefix memo (nil outside one):
	// slot (plan.prefix-1)*len(iterBatches)+bi holds the prefix's frontier
	// at iterBatches[bi]. pre is the entry the current candidates extend;
	// own is the worker's reusable entry when there is no memo.
	memo []prefixSlot
	pre  *prefixEntry
	own  prefixEntry

	nodes []gnode
	parts []spart
	next  []spart
	idx   []int32
	// opts, batches, byCost, claim and pairs are stairPairs' buffers and
	// its callers': a tier's options, the retrieval batch of each, the
	// options by cost, each partial's claiming option, and the selection.
	opts    []stairOpt
	batches []int32
	byCost  []int32
	claim   []int32
	pairs   []uint64
	// decMemo holds each decode chip count's stall-free tier, which a
	// single-retrieval search merges as it is; dec is the tier an
	// iterative search stalls its points into, at the round terms iter
	// (decodePoints). decs is the tier the current candidates were merged
	// with.
	decMemo map[int]*decTier
	dec     decTier
	iter    engine.IterTerms
	decs    *decTier
	// sm, priced, refs and the terms are priceStamps' and planFrontier's
	// buffers.
	sm                     []stampPrice
	priced                 []perf.Point[int32]
	refs                   []stampRef
	preCosts, pauses, retr []stampTerm
	// lat is the critical-path walk's per-stage latency buffer.
	lat []float64

	// stats counts this worker's plans, tier work and stampings.
	stats SearchStats
}

// newSearchCtx builds a worker context. Its evaluator prices prefix steps
// and decode paces (PrefixCost, DecodeCost) with the arithmetic
// engine.Compile runs, from a stage-price memo of its own.
func (o *Optimizer) newSearchCtx() *searchCtx {
	ev, err := engine.NewEvaluator(o.Pipe, o.Prof)
	if err != nil {
		// NewOptimizer ran the one check NewEvaluator makes.
		panic("core: search evaluator on a validated pipeline: " + err.Error())
	}
	ctx := &searchCtx{
		searchSpace: &o.space,
		ev:          ev,
		lat:         make([]float64, len(o.Pipe.Stages)),
		decMemo:     make(map[int]*decTier),
		recalls:     make([]float64, len(o.space.knobs)),
	}
	ctx.cheapNP, ctx.cheapFO = o.cheapestKnobs(ctx.knobs)
	if ri := o.Pipe.Index(pipeline.KindRetrieval); ri >= 0 {
		for k, kn := range ctx.knobs {
			ctx.recalls[k] = o.Prof.StageRecall(o.Pipe.Stages[ri].Tuned(kn.nprobe, kn.fanout))
		}
	}
	return ctx
}

// cheapestKnobs picks the searched (nprobe, fanout) pair with the smallest
// tuned scan and gather cost — the pair every other stamping prices at or
// above, so proxy pricing at it stays optimistic. The two axes minimize
// independently: scan volume scales with effective nprobe and with effective
// fanout, gather with effective fanout alone.
func (o *Optimizer) cheapestKnobs(knobs []knobOpt) (np, fo int) {
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
	np, fo = knobs[0].nprobe, knobs[0].fanout
	for _, k := range knobs[1:] {
		if effNP(k.nprobe) < effNP(np) {
			np = k.nprobe
		}
		if effFO(k.fanout) < effFO(fo) {
			fo = k.fanout
		}
	}
	return np, fo
}

// mergedMetrics is a decode-merged candidate's metrics as the merge knows
// them. Where the tiers price the schedule itself (no proxy) they are
// bit-identical to the metrics compiling the candidate returns
// (TestMergeMetricsMatchEvaluate).
func (c *searchCtx) mergedMetrics(p spart, normChips float64) perf.Metrics {
	return perf.Metrics{TTFT: p.exact, TPOT: p.tpot, QPS: p.qps, QPSPerChip: p.qps / normChips, Recall: c.recalls[0]}
}

// stampPrice is one stamping as priceStamps prices it; ok is false where
// compiling it fails, which for a priced stamping is where a term is
// infeasible or its metrics are not Valid.
type stampPrice struct {
	m  perf.Metrics
	ok bool
}

// priceStamps prices every stamping of a decode-merged candidate into
// c.sm: without a proxy, the candidate itself (mergedMetrics); otherwise
// each re-prices what it moves — the prefix step under its formation, the
// groups' retrieval pauses and the retrieval tier at its knob pair, the
// decode tier over the shape sample — and assembles the metrics from the
// candidate's group choices as compiling and ShapeMetrics do, term by
// term in the same order, so they equal its compile's bit for bit
// (TestMergeMetricsMatchEvaluate).
func (o *Optimizer) priceStamps(c *searchCtx, plan Plan, bIter int, p spart, normChips float64) {
	if !c.proxy {
		m := c.mergedMetrics(p, normChips)
		c.sm = append(c.sm[:0], stampPrice{m, m.Valid()})
		return
	}
	sm := c.sm[:0]
	prefixIdx := o.Pipe.Index(pipeline.KindPrefix)
	groups := plan.Placement.Groups
	picks := c.pre.picks[int(p.node)*len(groups) : int(p.node+1)*len(groups)]
	d := decPoint{shTPOT: math.NaN()}
	if i := slices.IndexFunc(c.decs.pts, func(d decPoint) bool { return d.batch == p.decB && d.replicas == p.decR }); i >= 0 {
		d = o.shapedDecode(c, plan, &c.decs.pts[i])
	}

	// The terms per formation and per knob pair. A group spanning no
	// retrieval pauses 0; iterative rounds scan at the base configuration.
	nk := len(c.knobs)
	pre, pauses, retr := c.preCosts[:0], c.pauses[:0], c.retr[:0]
	for gi, g := range groups {
		pk := picks[gi]
		if i := slices.Index(g.Stages, prefixIdx); i >= 0 {
			for _, f := range c.forms {
				pc, ok := c.ev.PrefixCost(o.opts.Shapes, plan.GroupChips[gi], pk.batch, pk.replicas[i], f.policy, f.quantum)
				pre = append(pre, stampTerm{pc.Occupancy, pc.TTFT, pc.Delta, ok})
			}
		}
		for _, kn := range c.knobs {
			t := stampTerm{v: pk.pause, ok: true}
			if pk.pause != 0 {
				t.v, t.ok = engine.RetrievalPause(&o.Pipe, o.Prof, g.Stages, plan.Servers, pk.batch, kn.nprobe, kn.fanout)
			}
			pauses = append(pauses, t)
		}
	}
	if len(c.retrIdxs) > 0 {
		st := o.Pipe.Stages[c.retrIdxs[0]]
		var iterOcc float64
		if bIter > 0 {
			// The round terms the candidate's decode point was stalled at.
			iterOcc = float64(c.iter.Rounds) / c.iter.Retrieval.QPS
		}
		for _, kn := range c.knobs {
			rt := o.Prof.Eval(st.Tuned(kn.nprobe, kn.fanout), plan.Servers, int(p.retrB))
			retr = append(retr, stampTerm{1 / (1/rt.QPS + iterOcc), rt.Latency + o.Prof.RetrievalTransferLatency(), 0, rt.OK})
		}
	}
	c.preCosts, c.pauses, c.retr = pre, pauses, retr

	for si := range len(c.forms) * nk {
		f, k := si/nk, si%nk
		ok := pre[f].ok
		lat := c.lat
		clear(lat)
		qps := d.shQPS
		for gi, g := range groups {
			pk := picks[gi]
			var occ, delta float64
			for i, st := range g.Stages {
				lat[st] = pk.lats[i]
				t := pk.inv[i]
				if st == prefixIdx {
					lat[st], t, delta = pre[f].lat, pre[f].v, pre[f].delta
				}
				occ += t
				if st == prefixIdx {
					occ += c.pre.iterPrefOcc
				}
			}
			ps := pauses[gi*nk+k]
			ok = ok && ps.ok
			occ += ps.v
			occ += delta // 0 off the prefix group and without shapes
			qps = math.Min(qps, 1/occ)
		}
		if len(retr) > 0 {
			ok = ok && retr[k].ok
			for _, ri := range c.retrIdxs {
				lat[ri] = retr[k].lat
			}
			qps = math.Min(qps, retr[k].v)
		}
		m := perf.Metrics{
			TTFT:       engine.CriticalPathTTFT(c.preds, lat, prefixIdx),
			TPOT:       d.shTPOT,
			QPS:        qps,
			QPSPerChip: qps / normChips,
			Recall:     c.recalls[k],
		}
		sm = append(sm, stampPrice{m, ok && m.Valid()})
	}
	c.sm = sm
}

// stampTerm is a term a stamping moves: a prefix step (occupancy term v,
// TTFT latency, shaped occupancy delta), a pause v, or the retrieval tier
// (throughput v, TTFT latency); ok is false where it is infeasible.
type stampTerm struct {
	v, lat, delta float64
	ok            bool
}

// shapedDecode returns decode point d with the TPOT and throughput a
// stamping's compile gives it — over the shape sample, if any — priced
// once: decodePoints' memo keeps the point, and only points some candidate
// uses are priced.
func (o *Optimizer) shapedDecode(c *searchCtx, plan Plan, d *decPoint) decPoint {
	if d.priced {
		return *d
	}
	d.shTPOT, d.shQPS, d.priced = d.tpot, d.qps, true
	if shapes := o.opts.Shapes; len(shapes) > 0 {
		var ok bool
		if d.shTPOT, d.shQPS, ok = c.ev.DecodeCost(shapes, plan.DecodeChips, int(d.batch), int(d.replicas), d.stall); !ok {
			d.shTPOT = math.NaN() // no stamping compiles
		}
	}
	return *d
}

// stamp expands a surviving partial with stamping si into a schedule of
// its own, reading its group choices from the prefix entry's slab: the
// schedule aliases neither the slab nor the memo.
func (c *searchCtx) stamp(plan Plan, bIter int, p spart, si int) Schedule {
	f, k := c.forms[si/len(c.knobs)], c.knobs[si%len(c.knobs)]
	s := Schedule{
		RetrievalServers: plan.Servers,
		RetrievalBatch:   int(p.retrB),
		DecodeChips:      plan.DecodeChips,
		DecodeBatch:      int(p.decB),
		DecodeReplicas:   int(p.decR),
		IterativeBatch:   bIter,
		FormPolicy:       f.policy,
		ChunkQuantum:     f.quantum,
		NProbe:           k.nprobe,
		ShardFanout:      k.fanout,
	}
	if ng := len(plan.Placement.Groups); ng > 0 {
		s.Groups = make([]GroupSchedule, ng)
		for gi, pk := range c.pre.picks[int(p.node)*ng : int(p.node+1)*ng] {
			s.Groups[gi] = GroupSchedule{
				Stages:   plan.Placement.Groups[gi].Stages,
				Chips:    plan.GroupChips[gi],
				Batch:    pk.batch,
				Replicas: append([]int(nil), pk.replicas...),
			}
		}
	}
	return s
}

// planCandidates enumerates batch policies for one plan at the iterative
// batch iterBatches[bi] (0 for non-iterative workloads), pruning dominated
// combinations after each component. The pre-decode tiers come from the
// plan's prefix frontier (prefixFrontier), built once per Optimize call
// for all the plans that share the prefix; the decode tier follows
// (mergeDecode). The surviving partials are returned in the worker's
// reusable buffer (valid until the next call); callers price, filter and
// stamp them.
func (o *Optimizer) planCandidates(ctx *searchCtx, plan Plan, bi int) []spart {
	ctx.pre = o.prefixFrontier(ctx, plan, bi)
	if len(ctx.pre.parts) == 0 {
		return nil
	}
	ctx.decs = o.decodePoints(ctx, plan, ctx.iterBatches[bi])
	return ctx.mergeDecode(ctx.pre.parts, ctx.decs)
}

// decodePoints prices the plan's decode tier at iterative batch bIter. The
// stall-free points — latency, batch and replicas of each candidate —
// depend on the plan only through its decode chips, so a worker fetches
// and orders them once per chip count (decMemo) and a single-retrieval
// search returns them as they are. With iteration the §5.3 round terms
// depend on the plan's servers, prefix-group chips and bIter alone: they
// are priced once per call (ctx.iter), each point's stall is arithmetic on
// them (engine.IterTerms.Cost), the same float operations compiling it
// runs, and the stalled points are ordered afresh.
func (o *Optimizer) decodePoints(ctx *searchCtx, plan Plan, bIter int) *decTier {
	decIdx := o.Pipe.Index(pipeline.KindDecode)
	outTokens := float64(o.Pipe.Stages[decIdx].OutTokens)
	base, ok := ctx.decMemo[plan.DecodeChips]
	if !ok {
		ctx.stats.decFetches++
		base = new(decTier)
		for _, bd := range ctx.decBatches {
			for _, cand := range o.Prof.Candidates(o.Pipe.Stages[decIdx], plan.DecodeChips, bd) {
				base.pts = append(base.pts, decPoint{
					tpot:     cand.Latency / outTokens,
					qps:      float64(bd) / cand.Latency,
					lat:      cand.Latency,
					batch:    int32(bd),
					replicas: int32(cand.Replicas),
				})
			}
		}
		base.sortStair()
		ctx.decMemo[plan.DecodeChips] = base
	}
	if bIter == 0 {
		return base
	}
	ctx.stats.iterRounds++
	dec := &ctx.dec
	dec.pts = dec.pts[:0]
	if ctx.iter, ok = o.iterTerms(plan, bIter); ok {
		for _, b := range base.pts {
			stall := ctx.iter.Cost(int(b.batch), b.lat).StallPerRequest
			genTime := b.lat + stall
			dec.pts = append(dec.pts, decPoint{
				tpot:     genTime / outTokens,
				qps:      float64(b.batch) / genTime,
				stall:    stall,
				batch:    b.batch,
				replicas: b.replicas,
			})
		}
	}
	dec.sortStair()
	return dec
}

// iterTerms prices the plan's §5.3 round terms at iterative batch bIter:
// the round's retrieval on the plan's servers, its prefix pass on the chips
// of the group holding the prefix stage.
func (o *Optimizer) iterTerms(plan Plan, bIter int) (engine.IterTerms, bool) {
	prefChips, ok := o.planPrefixChips(plan, o.Pipe.Index(pipeline.KindPrefix))
	if !ok {
		return engine.IterTerms{}, false
	}
	return engine.IterativeTerms(o.Pipe, o.Prof, plan.Servers, prefChips, bIter)
}

// prefixFrontier returns the plan's pre-decode frontier at iterBatches[bi]:
// from the running Optimize call's memo, filled by the first worker to need
// it, or — outside Optimize, for a plan Plans did not number — built into
// the worker's own entry.
func (o *Optimizer) prefixFrontier(ctx *searchCtx, plan Plan, bi int) *prefixEntry {
	if ctx.memo == nil || plan.prefix == 0 {
		o.fillPrefix(ctx, plan, ctx.iterBatches[bi], &ctx.own)
		return &ctx.own
	}
	slot := &ctx.memo[(plan.prefix-1)*len(ctx.iterBatches)+bi]
	slot.once.Do(func() { o.fillPrefix(ctx, plan, ctx.iterBatches[bi], &slot.e) })
	return &slot.e
}

// fillPrefix builds the plan's pre-decode frontier at iterative batch
// bIter into dst: the XPU groups, then the retrieval tier, each extension
// Pareto-pruned. Only the prefix — placement, group chips, servers, bIter —
// enters here; the decode chips never do, which is what lets plans share
// the result. An infeasible prefix leaves dst empty.
func (o *Optimizer) fillPrefix(ctx *searchCtx, plan Plan, bIter int, dst *prefixEntry) {
	dst.parts, dst.picks, dst.iterPrefOcc = dst.parts[:0], dst.picks[:0], 0
	prefixIdx := o.Pipe.Index(pipeline.KindPrefix)
	retrIdx := o.Pipe.Index(pipeline.KindRetrieval)

	// Iterative occupancy terms for this bIter (coupled to the prefix
	// group's chips and the retrieval servers, both fixed by the plan):
	// the round's prefix pass as compiling prices it, its retrieval at the
	// cheapest knob pair like the initial one's.
	var iterPrefOcc, iterRetrOcc float64
	if bIter > 0 {
		it, ok := o.iterTerms(plan, bIter)
		if !ok {
			return
		}
		rt := o.Prof.Eval(o.Pipe.Stages[retrIdx].Tuned(ctx.cheapNP, ctx.cheapFO), plan.Servers, bIter)
		if !rt.OK {
			return
		}
		n := float64(it.Rounds)
		iterRetrOcc = n / rt.QPS
		iterPrefOcc = n / it.Prefix.QPS
		dst.iterPrefOcc = iterPrefOcc
	}

	ctx.nodes = ctx.nodes[:0]
	parts := append(ctx.parts[:0], spart{qps: qpsUnbounded, node: -1})
	next := ctx.next[:0]
	defer func() { ctx.parts, ctx.next = parts, next }()

	// Pre-decode XPU groups.
	for gi, g := range plan.Placement.Groups {
		chips := plan.GroupChips[gi]
		occExtra := 0.0
		if slices.Contains(g.Stages, prefixIdx) {
			occExtra = iterPrefOcc
		}
		choices := o.groupChoicesFor(ctx, g, chips, plan.Servers, prefixIdx, occExtra)
		if len(choices) == 0 {
			return
		}
		opts := ctx.opts[:0]
		for ci := range choices {
			opts = append(opts, stairOpt{cost: choices[ci].ttft, qps: 1 / choices[ci].occ})
		}
		ctx.opts = opts
		next = next[:0]
		for _, k := range ctx.stairPairs(parts, opts) {
			np := opts[k>>32].extend(parts[uint32(k)])
			ctx.nodes = append(ctx.nodes, gnode{parent: np.node, pick: &choices[k>>32]})
			np.node = int32(len(ctx.nodes) - 1)
			next = append(next, np)
		}
		ctx.stats.groupPairs += int64(len(next))
		parts = prunePartialsInto(ctx, next, parts[:0])
		if len(parts) == 0 {
			return
		}
	}

	// Retrieval tier. Partials price the cheapest searched knob pair —
	// identical to the base stage when the knob dimensions are off, and an
	// optimistic proxy every stamping re-prices upward when they are on.
	if retrIdx >= 0 {
		transfer := o.Prof.RetrievalTransferLatency()
		rstage := o.Pipe.Stages[retrIdx].Tuned(ctx.cheapNP, ctx.cheapFO)
		opts, batches := ctx.opts[:0], ctx.batches[:0]
		for _, b := range ctx.retrBatches {
			rt := o.Prof.Eval(rstage, plan.Servers, b)
			if !rt.OK {
				continue
			}
			opts = append(opts, stairOpt{cost: rt.Latency + transfer, qps: 1 / (1/rt.QPS + iterRetrOcc)})
			batches = append(batches, int32(b))
		}
		ctx.opts, ctx.batches = opts, batches
		next = next[:0]
		for _, k := range ctx.stairPairs(parts, opts) {
			np := opts[k>>32].extend(parts[uint32(k)])
			np.exact = opts[k>>32].cost
			np.retrB = batches[k>>32]
			next = append(next, np)
		}
		ctx.stats.retrPairs += int64(len(next))
		parts = prunePartialsInto(ctx, next, parts[:0])
		if len(parts) == 0 {
			return
		}
	}

	// Copy the frontier out, its group-choice chains flattened into the
	// slab: one allocation for the partials and one for the picks. Each
	// partial's exact TTFT is walked here, once, from its chosen stage
	// latencies; every decode-chip variant of the prefix reads it.
	ng := len(plan.Placement.Groups)
	dst.parts = append(dst.parts, parts...)
	if n := len(parts) * ng; cap(dst.picks) < n {
		dst.picks = make([]*groupChoice, n)
	} else {
		dst.picks = dst.picks[:n]
	}
	lat := ctx.lat
	for i := range dst.parts {
		p := &dst.parts[i]
		clear(lat)
		node := p.node
		for gi := ng - 1; gi >= 0; gi-- {
			pk := ctx.nodes[node].pick
			dst.picks[i*ng+gi] = pk
			for k, st := range plan.Placement.Groups[gi].Stages {
				lat[st] = pk.lats[k]
			}
			node = ctx.nodes[node].parent
		}
		for _, ri := range ctx.retrIdxs {
			lat[ri] = p.exact
		}
		p.exact = engine.CriticalPathTTFT(ctx.preds, lat, prefixIdx)
		p.node = int32(i)
	}
}

// mergeDecode extends the pre-decode partials with every point of the
// decode tier and returns, in the worker's reusable buffer, what
// Pareto-pruning the full cross product returns: the same survivors,
// representatives and order. Unless it is a lone one, parts is a valid
// strict staircase, TTFT and throughput q ascending. A pair (p_i, d) keeps
// p_i's TTFT at throughput min(q_i, qps_d), so it survives only if d is on
// the tier's staircase and either q_{i-1} < qps_d < q_i, or d is the first
// staircase point with qps_d >= q_i: the least TPOT at which p_i keeps its
// own throughput. Every viable point with that TPOT and a throughput of at
// least q_i makes that same pair, and the product keeps the first, the
// lowest index (the capped tie). Each partial emits its capped pair, then
// its range downward: (TTFT asc, throughput desc), the order the prune
// leaves. A lone partial keeps the prune's lone cases: a 1 x 1 product
// passes unvalidated, and a lone invalid partial makes only invalid pairs.
func (c *searchCtx) mergeDecode(parts []spart, t *decTier) []spart {
	out := c.next[:0]
	if len(parts) == 1 && len(t.pts) == 1 {
		out, parts = append(out, t.pts[0].extend(parts[0])), nil
	} else if len(parts) == 1 && !partialValid(parts[0]) {
		parts = nil
	}
	at := func(k int) *decPoint { return &t.pts[t.order[t.stair[k]]] }
	lo := 0 // the first staircase point above the previous partial's throughput
	for _, p := range parts {
		hi := lo
		for hi < len(t.stair) && at(hi).qps < p.qps {
			hi++
		}
		if hi < len(t.stair) {
			run := t.order[t.stair[hi]:] // the capped point's TPOT run
			rep := run[0]
			for _, i := range run[1:] {
				if t.pts[i].tpot != t.pts[run[0]].tpot || t.pts[i].qps < p.qps {
					break
				}
				rep = min(rep, i)
			}
			out = append(out, t.pts[rep].extend(p))
		}
		for k := hi - 1; k >= lo; k-- {
			out = append(out, at(k).extend(p))
		}
		lo = hi
		if hi < len(t.stair) && at(hi).qps == p.qps {
			lo++
		}
	}
	c.next = out
	return out
}

// stairOpt is one option the group or retrieval tier extends every
// partial with: the cost it adds to TTFT and the throughput it caps.
type stairOpt struct{ cost, qps float64 }

// extend returns p extended by the option, as the tier's cross product
// holds the pair.
func (o stairOpt) extend(p spart) spart {
	p.ttft += o.cost
	p.qps = math.Min(p.qps, o.qps)
	return p
}

// stairPairs selects, from the cross product of the partials and a tier's
// options, the pairs Pareto-pruning it can keep, packed option<<32|partial
// in ascending order: the product's own order, option by option. Pruning
// the selection with prunePartialsInto returns what pruning the whole
// product returns — the same survivors, representatives and order — and
// the selection holds at most one pair per partial and one per option.
//
// Unless it is a lone one (which prunePartialsInto passes through, valid or
// not), the partials form a valid strict staircase, the order
// prunePartialsInto leaves them in: TTFT and throughput both ascending, no
// TPOT yet. A pair (p, o) has throughput min(qps_p, qps_o) and TTFT
// fl(ttft_p + cost_o), monotone in cost_o, so it can survive only if
//
//   - qps_o > qps_p, and of the options with qps_o > qps_p — whose pairs
//     with p share p's throughput and every other metric — o gives p the
//     least TTFT a valid pair has, and is the first of those that tie on
//     it after rounding: their pairs with p are exact duplicates, of which
//     the prune keeps only the first; or
//   - qps_p >= qps_o, and p is the first partial with qps_p >= qps_o that
//     makes a valid pair with o: every later one gives the same
//     throughput, qps_o, at a TTFT no lower.
//
// Every pair the full prune keeps is selected, and so is, for every pair
// selected and dropped, a kept pair that dominates or duplicates it; the
// relative order is the product's. The options are walked once, by cost:
// each finds its partial of the second rule by binary search, and
// claims, under the first, the partials it admits that no cheaper option
// has claimed. Once an option admits the staircase from its start, the
// claimed partials are a prefix that only grows, so the walk visits each
// partial about once; only a negative added TTFT, which no tier prices,
// admits a range further up.
func (c *searchCtx) stairPairs(parts []spart, opts []stairOpt) []uint64 {
	pairs := c.pairs[:0]
	if len(parts) == 1 {
		// Every valid pair, or the product's single pair.
		for oi, o := range opts {
			if len(opts) == 1 || partialValid(o.extend(parts[0])) {
				pairs = append(pairs, uint64(oi)<<32)
			}
		}
		c.pairs = pairs
		return pairs
	}
	// negative reports a pair an added TTFT below zero leaves invalid.
	negative := func(p spart, o stairOpt) bool { return p.ttft+o.cost < 0 }
	byCost := c.byCost[:0]
	for oi, o := range opts {
		// Viable: a throughput neither NaN nor negative and a finite cost,
		// which may be negative: the pair's sum can still be valid.
		if o.qps >= 0 && o.cost >= -math.MaxFloat64 && o.cost <= math.MaxFloat64 {
			byCost = append(byCost, int32(oi))
		}
	}
	slices.SortStableFunc(byCost, func(a, b int32) int { return cmpFloat(opts[a].cost, opts[b].cost) })
	claim := c.claim[:0]
	for range parts {
		claim = append(claim, -1)
	}
	n, cover := len(parts), 0 // parts[:cover] are claimed
	for s, oi := range byCost {
		o := opts[oi]
		lo := sort.Search(n, func(i int) bool { return parts[i].qps >= o.qps })
		pi := lo
		for pi < n && negative(parts[pi], o) {
			pi++
		}
		if pi < n && partialValid(o.extend(parts[pi])) {
			pairs = append(pairs, uint64(oi)<<32|uint64(pi))
		}
		// o admits parts[z:lo]: qps_p < qps_o and a TTFT not negative.
		z := 0
		for z < lo && negative(parts[z], o) {
			z++
		}
		for p := max(z, cover); p < lo; p++ {
			if claim[p] < 0 {
				claim[p] = int32(s)
			}
		}
		if z <= cover {
			cover = max(cover, lo)
		}
	}
	for pi, s := range claim {
		if s < 0 {
			continue
		}
		p, best := parts[pi], byCost[s]
		if !partialValid(opts[best].extend(p)) {
			continue // an added TTFT overflowed
		}
		least := p.ttft + opts[best].cost
		for _, oi := range byCost[s+1:] {
			if p.ttft+opts[oi].cost != least {
				break
			}
			if opts[oi].qps > p.qps {
				best = min(best, oi)
			}
		}
		pairs = append(pairs, uint64(best)<<32|uint64(pi))
	}
	c.byCost, c.claim = byCost, claim
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	c.pairs = pairs
	return pairs
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
	cs, ok := o.gcache[key]
	o.gmu.Unlock()
	if ok {
		return cs
	}
	var choices []groupChoice
	for _, b := range ctx.preBatches {
		pause, ok := engine.RetrievalPause(&o.Pipe, o.Prof, g.Stages, servers, b, ctx.cheapNP, ctx.cheapFO)
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
// group at one batch size whose collocated models fit the group's HBM
// (engine.GroupMemFits, which compiling checks), returning (ttft,
// occupancy) aggregates. pause is the per-request retrieval wait for
// groups spanning the retrieval stage (zero otherwise).
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
	var rec func(i int, ttft, occ float64, reps []int, lats, inv []float64)
	rec = func(i int, ttft, occ float64, reps []int, lats, inv []float64) {
		if i == len(perStage) {
			if !engine.GroupMemFits(o.Pipe, o.Prof, GroupSchedule{Stages: g.Stages, Chips: chips, Replicas: reps}) {
				return
			}
			terms := append(append(make([]float64, 0, 2*i), lats...), inv...) // one allocation
			out = append(out, groupChoice{
				ttft:     ttft,
				occ:      occ + pause,
				pause:    pause,
				batch:    batch,
				replicas: append([]int(nil), reps...),
				lats:     terms[:i:i],
				inv:      terms[i:],
			})
			return
		}
		for _, pt := range perStage[i] {
			extra := 0.0
			if g.Stages[i] == prefixIdx {
				extra = iterPrefOcc
			}
			rec(i+1, ttft+pt.Latency, occ+1/pt.QPS+extra, append(reps, pt.Replicas), append(lats, pt.Latency), append(inv, 1/pt.QPS))
		}
	}
	rec(0, 0, 0, nil, nil, make([]float64, 0, len(perStage)))
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
		if slices.Contains(g.Stages, prefixIdx) {
			return plan.GroupChips[gi], true
		}
	}
	return 0, false
}

// prunePartialsInto keeps the Pareto-optimal pre-decode partials (lower
// TTFT, higher throughput; no tier before decode sets TPOT), appending
// survivors to dst and returning it. It is perf.Frontier specialized to the
// compact spart representation — identical validity filtering, identical
// (TTFT asc, throughput desc) order, exact duplicates collapsed to the
// first — without boxing each partial into a Point. Like the cross products
// it prunes, a lone partial passes unvalidated. src is reordered in place.
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
		if c := cmpFloat(y.qps, x.qps); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// In this order a partial survives iff its throughput exceeds every
	// earlier one's: otherwise an earlier one dominates or duplicates it.
	top := math.Inf(-1)
	for _, i := range idx {
		if valid[i].qps > top {
			dst, top = append(dst, valid[i]), valid[i].qps
		}
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
	return p.ttft >= 0 && p.ttft <= math.MaxFloat64 &&
		p.tpot >= 0 && p.tpot <= math.MaxFloat64 &&
		p.qps >= 0 && p.qps <= math.MaxFloat64
}
