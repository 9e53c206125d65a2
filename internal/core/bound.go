package core

import (
	"math"

	"rago/internal/engine"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/stageperf"
)

// prefixFormBound is the optimistic (latency, occupancy) floor of the
// prefix stage on chips over every formation dimension the search may
// pick. Shaped batches are priced at padded member maxima, all of which
// are at least the sample's padded minimum, so the min-padded shaped
// envelope lower-bounds every policy's expected latency (roofline costs
// are monotone in sequence length). Chunked prefill completes a batch's
// first member after at least one chunk (TTFT floor) and occupies the
// resource for at least the shortest request's own chunk count
// (occupancy floor), per candidate quantum.
func (o *Optimizer) prefixFormBound(st pipeline.Stage, chips int) (minLat, occLB float64, ok bool) {
	sp := &o.space
	base := st
	if sp.shaped {
		base = stageperf.ShapedStage(st, sp.padMin)
	}
	env := o.Prof.Envelope(base, chips, o.opts.MaxPreBatch)
	if !env.OK {
		return 0, 0, false
	}
	minLat = env.MinLatency
	occLB = 1 / env.MaxQPS
	for _, q := range sp.chunks {
		cl := o.Prof.EvalR(stageperf.ShapedStage(st, q), chips, 1, 1)
		if !cl.OK {
			continue
		}
		minLat = math.Min(minLat, cl.Latency)
		occLB = math.Min(occLB, float64((sp.minPrompt+q-1)/q)*cl.Latency)
	}
	return minLat, occLB, true
}

// planBound computes an admissible optimistic bound for one plan: metrics
// at least as good, on every objective, as any schedule the plan can
// produce. The branch-and-bound search prunes a plan without evaluating a
// single schedule when an incumbent frontier point strictly dominates its
// bound — every completion is then strictly dominated too, so the final
// frontier is provably unchanged (the differential test pins this).
//
// The bound composes per-resource envelopes (stageperf.Envelope — roofline
// minima/maxima over every batch and replication the search may pick):
//
//   - TTFT >= the longest path to the prefix stage over per-stage minimum
//     latencies (retrieval stages add the CPU-to-XPU transfer); every real
//     schedule walks the same DAG with latencies >= these minima, and
//     drops the non-negative retrieval-pause and iterative terms.
//   - TPOT >= the decode tier's minimum latency over output tokens
//     (iterative stalls only add).
//   - QPS <= the loosest saturation throughput of every resource: a
//     group's occupancy is at least the sum of its stages' minimum
//     per-request service times, a retrieval tier's at least 1/MaxQPS,
//     and the decode tier's bd/genTime is at most its envelope MaxQPS.
//
// ok is false when some stage is infeasible at every batch/replication on
// the plan's resources: no schedule of the plan compiles, so the caller
// skips the plan outright. The per-stage terms come through terms
// (boundTerm).
func (o *Optimizer) planBound(plan Plan, terms boundTerms) (perf.Metrics, bool) {
	pipe := &o.Pipe
	sp := &o.space
	prefixIdx := pipe.Index(pipeline.KindPrefix)
	decIdx := pipe.Index(pipeline.KindDecode)

	// Per-stage optimistic latency on the plan's resources.
	minLat := make([]float64, len(pipe.Stages))
	qpsUB := math.Inf(1)

	// Pre-decode groups: stages share the group's chips.
	for gi, g := range plan.Placement.Groups {
		var occLB float64
		for _, idx := range g.Stages {
			t := o.boundTerm(terms, termKey{idx, plan.GroupChips[gi], true})
			if !t.ok {
				return perf.Metrics{}, false
			}
			minLat[idx] = t.lat
			occLB += t.occ
		}
		qpsUB = math.Min(qpsUB, 1/occLB)
	}

	// Retrieval tiers (one per source, each on the plan's server count).
	for _, ridx := range sp.retrIdxs {
		t := o.boundTerm(terms, termKey{ridx, plan.Servers, false})
		if !t.ok {
			return perf.Metrics{}, false
		}
		minLat[ridx] = t.lat
		qpsUB = math.Min(qpsUB, t.qps)
	}

	// Decode tier.
	t := o.boundTerm(terms, termKey{decIdx, plan.DecodeChips, false})
	if !t.ok {
		return perf.Metrics{}, false
	}
	qpsUB = math.Min(qpsUB, t.qps)
	tpotLB := t.lat / float64(pipe.Stages[decIdx].OutTokens)

	// TTFT: longest path to the prefix over minimum latencies (the walk
	// consumes minLat, which nothing reads after it).
	ttftLB := engine.CriticalPathTTFT(sp.preds, minLat, prefixIdx)

	return perf.Metrics{
		TTFT:       ttftLB,
		TPOT:       tpotLB,
		QPS:        qpsUB,
		QPSPerChip: qpsUB / o.normChips(plan),
		// No schedule's measured recall exceeds the calibrated surface's
		// maximum (bilinear interpolation never leaves the grid's hull),
		// so MaxRecall is an exact ceiling — admissible without margin.
		Recall: o.Prof.MaxRecall(),
	}, true
}

// boundTerms memoizes boundTerm for one pass over the plans. Case IV's
// 7,810 plans ask for a few dozen distinct terms, and the profiler's
// envelope memo takes its shared mutex on every ask.
type boundTerms map[termKey]boundTerm

// termKey names one stage on one resource size: chips for an XPU stage,
// servers for retrieval. group says whether the stage is a pre-decode
// group member or a tier of its own (retrieval, decode).
type termKey struct {
	stage, size int
	group       bool
}

// boundTerm is one stage's optimistic terms on one resource size, as
// planBound composes them: a latency floor, and a per-request occupancy
// floor (a group member) or a throughput ceiling (a tier). ok is false when
// no batch or replication the search may pick is feasible there.
type boundTerm struct {
	lat, occ, qps float64
	ok            bool
}

// boundTerm returns k's terms, through the memo terms. They are
// composed from per-resource envelopes (stageperf.Envelope — roofline
// minima/maxima over every batch and replication the search may pick):
//
//   - A group member's batches range over the pre-decode bound; the prefix
//     stage relaxes over the formation dimensions (prefixFormBound).
//   - A retrieval tier adds the CPU-to-XPU transfer to its latency floor.
//     With nprobe/fanout searched, every knob pair's envelope contributes
//     to the optimistic union — the floors and ceilings hold for whichever
//     stamping the search picks.
//   - The decode tier's latency floor is its minimum full-generation
//     latency. A shape sample re-prices decode at each request's own live
//     KV context and output length: the envelope moves to the sample's
//     minimum context (per-token pace is monotone in context, so it floors
//     every request's pace), and the throughput ceiling scales by the
//     schema-to-minimum output ratio (slots free after at least minOut
//     tokens at the floored pace).
func (o *Optimizer) boundTerm(terms boundTerms, k termKey) boundTerm {
	if t, ok := terms[k]; ok {
		return t
	}
	pipe := &o.Pipe
	sp := &o.space
	st := pipe.Stages[k.stage]
	var t boundTerm
	switch {
	case k.group && k.stage == pipe.Index(pipeline.KindPrefix) && (sp.shaped || len(sp.chunks) > 0):
		t.lat, t.occ, t.ok = o.prefixFormBound(st, k.size)
	case k.group:
		env := o.Prof.Envelope(st, k.size, o.opts.MaxPreBatch)
		t = boundTerm{lat: env.MinLatency, occ: 1 / env.MaxQPS, ok: env.OK}
	case st.Kind == pipeline.KindRetrieval:
		rMinLat := math.Inf(1)
		for _, kn := range sp.knobs {
			env := o.Prof.Envelope(st.Tuned(kn.nprobe, kn.fanout), k.size, o.opts.MaxRetrievalBatch)
			if !env.OK {
				continue
			}
			t.ok = true
			rMinLat = math.Min(rMinLat, env.MinLatency)
			t.qps = math.Max(t.qps, env.MaxQPS)
		}
		t.lat = rMinLat + o.Prof.RetrievalTransferLatency()
	default:
		outRatio := 1.0
		if sp.shaped {
			st = stageperf.ShapedDecodeStage(st, engine.PadTokens(sp.minPrompt+sp.minOut/2))
			outRatio = float64(pipe.Stages[k.stage].OutTokens) / float64(sp.minOut)
		}
		env := o.Prof.Envelope(st, k.size, o.opts.MaxDecodeBatch)
		t = boundTerm{lat: env.MinLatency, qps: env.MaxQPS * outRatio, ok: env.OK}
	}
	terms[k] = t
	return t
}

// chips is the XPU total every schedule of the plan occupies (groups plus
// decode; retrieval servers are CPU hosts and never count).
func (p Plan) chips() int {
	total := p.DecodeChips
	for _, c := range p.GroupChips {
		total += c
	}
	return total
}

// normChips is the QPS/chip denominator of the plan's schedules: the fixed
// NormalizeChips when set, else the chips the plan allocates.
func (o *Optimizer) normChips(plan Plan) float64 {
	if o.opts.NormalizeChips > 0 {
		return float64(o.opts.NormalizeChips)
	}
	return float64(plan.chips())
}
