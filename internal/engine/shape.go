package engine

import (
	"math"
	"slices"
	"sort"

	"rago/internal/perf"
	"rago/internal/stageperf"
)

// Shape-aware step costing. RAGO's workload characterization (§4) is built
// on sequence-length distributions, and real RAG traffic has heavy-tailed
// per-request prompt and output lengths; a compiled plan therefore prices
// steps not only by batch size but by the sequence shape of the batch.
//
// The model both executors (the live runtime and the discrete-event
// simulator) share: a prefix batch is costed at the padded maximum of its
// members' prompt lengths — padding to a PadQuantum-token grid, the way
// real serving systems bucket-pad prefill batches, which also bounds the
// number of distinct operating points the memoizing profiler ever sees —
// and each decode slot is held for its own request's output length at a
// per-token step pace priced at the request's own live KV context
// (DecodeStepFor). The padding waste (tokens computed beyond what the
// batch's members needed) is reported so pad-to-max's cost is visible —
// and the batch-formation policies in form.go (bucketed, sorted-window,
// chunked prefill) are the schedulable dimensions that avoid it.

// Shape is the padded sequence shape one batch is costed at. The zero
// value means "schema constant" and takes the precompiled constant-shape
// path bit for bit.
type Shape struct {
	// PromptTokens is the padded prompt (prefix) length in tokens.
	PromptTokens int
	// OutputTokens is the generation length in tokens.
	OutputTokens int
}

// PadQuantum is the token granularity shaped batches are padded to.
const PadQuantum = 64

// PadTokens rounds n up to the padding grid (minimum one quantum).
func PadTokens(n int) int {
	if n <= PadQuantum {
		return PadQuantum
	}
	return (n + PadQuantum - 1) / PadQuantum * PadQuantum
}

// PrefixBatchShape aggregates the member prompt lengths of one prefix
// batch into the padded shape the batch is costed at, plus the sum of the
// members' effective (un-padded) prompt tokens for padding-waste
// accounting. Members with length 0 count at the schema constant. A batch
// whose members are all unshaped returns the zero Shape (and 0 tokens):
// the precompiled constant-shape cost applies and no padding is recorded.
func (p *Plan) PrefixBatchShape(prompts []int) (Shape, int) {
	shaped := false
	def := p.Pipe.Schema.PrefixTokens
	maxRaw, sum := 0, 0
	for _, pr := range prompts {
		if pr > 0 {
			shaped = true
		} else {
			pr = def
		}
		if pr > maxRaw {
			maxRaw = pr
		}
		sum += pr
	}
	if !shaped {
		return Shape{}, 0
	}
	return Shape{PromptTokens: PadTokens(maxRaw)}, sum
}

// StepLatencyShaped returns the service time of stage idx at the actually
// formed batch size n and the given padded batch shape. The zero shape —
// and every stage whose cost does not depend on the per-request shape
// (retrieval, encode, rewrite, rerank, the iterative round slots) — takes
// StepLatency's constant-shape path unchanged, which is what keeps
// shape-less traces reproducing their historical results exactly. Shaped
// prefix points that the profiler finds infeasible (a padded prompt
// overflowing KV cache at this batch) fall back to the constant-shape
// latency, like partial-batch re-profiling does.
func (p *Plan) StepLatencyShaped(idx, n int, sh Shape) float64 {
	if sh.PromptTokens <= 0 || idx != p.PrefixIdx {
		return p.StepLatency(idx, n)
	}
	st := p.Steps[p.PrefixIdx]
	b := n
	if b > st.Batch {
		b = st.Batch
	}
	r := st.Replicas
	if r > b {
		r = b
	}
	shaped := stageperf.ShapedStage(st.Stage, sh.PromptTokens)
	if pt := p.prof.EvalR(shaped, st.Chips, b, r); pt.OK {
		return pt.Latency
	}
	return p.StepLatency(idx, n)
}

// GenTokens is the generation length of a request asking for outTok
// tokens: outTok itself, or the schema constant when outTok is 0.
func (p *Plan) GenTokens(outTok int) int {
	if outTok > 0 {
		return outTok
	}
	return p.Steps[p.DecodeIdx].Stage.OutTokens
}

// GenTimeFor returns the decode-slot holding time of one request
// generating outTokens tokens (excluding iterative stalls, which accrue
// per round in the executors). 0 means the schema constant and returns the
// precompiled full-batch generation latency bit for bit.
func (p *Plan) GenTimeFor(outTokens int) float64 {
	if outTokens <= 0 {
		return p.Steps[p.DecodeIdx].Latency
	}
	return float64(outTokens) * p.DecodeStep
}

// DecodeStepFor returns the per-token decode pace of one request: a
// shaped prompt grows the request's live KV context (prompt plus half its
// generation, the same mid-generation average the schema uses), so long
// prompts slow their own decode steps instead of riding the schema mean.
// The context pads to the PadQuantum grid, which bounds the distinct
// operating points the memoizing profiler sees. Unshaped requests — and
// shaped contexts the profiler finds infeasible — return the precompiled
// DecodeStep bit for bit.
func (p *Plan) DecodeStepFor(promptTok, outTok int) float64 {
	if promptTok <= 0 {
		return p.DecodeStep
	}
	st := p.Steps[p.DecodeIdx]
	shaped := stageperf.ShapedDecodeStage(st.Stage, PadTokens(promptTok+p.GenTokens(outTok)/2))
	if pt := p.prof.EvalR(shaped, st.Chips, st.Batch, st.Replicas); pt.OK && pt.StepLatency > 0 {
		return pt.StepLatency
	}
	return p.DecodeStep
}

// GenTimeForShape is GenTimeFor with shape-dependent decode pacing: the
// slot holding time of a request with the given effective prompt and
// output lengths. Unshaped prompts take GenTimeFor's precompiled path
// unchanged.
func (p *Plan) GenTimeForShape(promptTok, outTok int) float64 {
	if promptTok <= 0 {
		return p.GenTimeFor(outTok)
	}
	return float64(p.GenTokens(outTok)) * p.DecodeStepFor(promptTok, outTok)
}

// ShapeMetrics re-weights the plan's analytical prediction over an
// empirical per-request shape distribution — the reference a heterogeneous
// replay is cross-checked against, exactly as Plan.Metrics is for
// constant-shape traces.
//
// Prefill: at saturation the prefix worker serves full batches of B
// members drawn from the trace, each costed at the padded maximum of its
// members, so the expected batch latency is E[L(pad(max of B draws))] —
// computed exactly from the empirical CDF (P(max <= v) = F(v)^B) with each
// distinct padded length priced through the memoizing profiler. That
// expectation replaces the constant-shape prefix latency in both the TTFT
// critical path and the prefix group's occupancy. Decode: slots free at
// each request's own output length, so the tier's throughput bound is
// DecodeBatch over the mean per-request generation time (iterative stalls
// included), and TPOT is the mean per-token pace. Stages whose cost is
// shape-independent keep their compiled occupancies.
func (p *Plan) ShapeMetrics(shapes []Shape) perf.Metrics {
	return p.ShapeMetricsWithPolicy(shapes, p.Sched.FormPolicy)
}

// ShapeMetricsWithPolicy is ShapeMetrics priced under an explicit
// batch-formation policy, so callers (the schedule search, the
// controller's capacity weighting) can compare policies on one compiled
// plan. The prefix expectation per policy comes from the empirical length
// CDF: FIFO prices E[L(pad(max of B draws))] over the whole
// distribution; Bucketed conditions the same expectation within each
// pow2 length bucket and weights by bucket mass (batches only ever mix
// within a bucket); SortedWindow prices consecutive blocks of the sorted
// length distribution (a saturated sorted window dispatches neighbors).
// Chunked-prefill plans (ChunkQuantum > 0) price the prefix in chunk
// terms instead — per-request occupancy is the request's own expected
// chunk count, and the TTFT contribution is the mean member completion
// within a full batch, reflecting chunk pipelining.
func (p *Plan) ShapeMetricsWithPolicy(shapes []Shape, pol BatchPolicy) perf.Metrics {
	if len(shapes) == 0 {
		return p.Metrics
	}
	var sumGen, sumOut float64
	for _, s := range shapes {
		sumGen += p.GenTimeForShape(s.PromptTokens, s.OutputTokens) + p.Iter.StallPerRequest
		sumOut += float64(p.GenTokens(s.OutputTokens))
	}
	n := float64(len(shapes))
	meanGen := sumGen / n

	prefix := p.Steps[p.PrefixIdx]
	var deltaOcc, ttftPrefix float64
	if q := p.Sched.ChunkQuantum; q > 0 {
		var chunks float64
		for _, s := range shapes {
			pt := s.PromptTokens
			if pt <= 0 {
				pt = p.Pipe.Schema.PrefixTokens
			}
			chunks += float64((pt + q - 1) / q)
		}
		perReq := chunks / n * p.ChunkLatency
		schemaChunks := (p.Pipe.Schema.PrefixTokens + q - 1) / q
		deltaOcc = perReq - float64(schemaChunks)*p.ChunkLatency
		ttftPrefix = perReq * float64(prefix.Batch+1) / 2
	} else {
		// Expected full-batch prefix latency over the policy's padded-max
		// distribution.
		elPrefix := p.expectedPrefixLatencyPolicy(shapes, prefix.Batch, pol)
		deltaOcc = (elPrefix - prefix.Latency) / float64(prefix.Batch)
		ttftPrefix = elPrefix
	}

	qps := math.Inf(1)
	for _, res := range p.Resources {
		occ := res.Occupancy
		if slices.Contains(res.Stages, p.PrefixIdx) {
			occ += deltaOcc
		}
		qps = math.Min(qps, 1/occ)
	}
	qps = math.Min(qps, float64(p.Sched.DecodeBatch)/meanGen)

	return perf.Metrics{
		TTFT:       p.criticalPathTTFTWithPrefix(ttftPrefix),
		TPOT:       meanGen / (sumOut / n),
		QPS:        qps,
		QPSPerChip: qps / float64(p.Sched.ChipsUsed()),
		Recall:     p.Metrics.Recall, // shape-independent: the scan's quality axis
	}
}

// paddedPrompts resolves the sample onto the padding grid (unshaped
// entries at the schema constant); shaped is false when every entry rode
// the schema constant.
func (p *Plan) paddedPrompts(shapes []Shape) (padded []int, shaped bool) {
	padded = make([]int, len(shapes))
	for i, s := range shapes {
		pr := s.PromptTokens
		if pr > 0 {
			shaped = true
		} else {
			pr = p.Pipe.Schema.PrefixTokens
		}
		padded[i] = PadTokens(pr)
	}
	return padded, shaped
}

// expectedPrefixLatencyPolicy is the expected full-batch prefix latency
// under a formation policy. With every entry unshaped it degenerates to
// the precompiled latency for every policy.
func (p *Plan) expectedPrefixLatencyPolicy(shapes []Shape, batch int, pol BatchPolicy) float64 {
	padded, shaped := p.paddedPrompts(shapes)
	if !shaped {
		return p.Steps[p.PrefixIdx].Latency
	}
	switch pol {
	case PolicyBucketed:
		// Batches never mix buckets: condition the padded-max expectation
		// within each pow2 bucket and weight by bucket mass.
		sort.Ints(padded)
		var el float64
		n := float64(len(padded))
		for i := 0; i < len(padded); {
			hi := padded[i]
			b := PadQuantum
			for b < hi {
				b <<= 1
			}
			j := i
			for j < len(padded) && padded[j] <= b {
				j++
			}
			el += float64(j-i) / n * p.expectedMaxLatency(padded[i:j], batch)
			i = j
		}
		return el
	case PolicySorted:
		// A saturated sorted window dispatches consecutive sorted runs:
		// partition the sorted sample into blocks of `batch` and price
		// each request at its block's padded maximum.
		sort.Ints(padded)
		var el float64
		n := float64(len(padded))
		for i := 0; i < len(padded); i += batch {
			j := i + batch
			if j > len(padded) {
				j = len(padded)
			}
			el += float64(j-i) / n * p.StepLatencyShaped(p.PrefixIdx, batch, Shape{PromptTokens: padded[j-1]})
		}
		return el
	}
	sort.Ints(padded)
	return p.expectedMaxLatency(padded, batch)
}

// expectedMaxLatency is E[L(max of batch draws)] over a sorted padded
// sample, computed exactly from the empirical CDF (P(max <= v) = F(v)^B)
// with each distinct padded length priced through the memoizing profiler.
func (p *Plan) expectedMaxLatency(padded []int, batch int) float64 {
	n := float64(len(padded))
	var el, fPrev float64
	for i := 0; i < len(padded); {
		v := padded[i]
		j := i
		for j < len(padded) && padded[j] == v {
			j++
		}
		f := math.Pow(float64(j)/n, float64(batch))
		el += (f - fPrev) * p.StepLatencyShaped(p.PrefixIdx, batch, Shape{PromptTokens: v})
		fPrev = f
		i = j
	}
	return el
}

// expectedMaxPadded is E[max of batch draws] over a sorted padded sample
// — the token-space twin of expectedMaxLatency.
func expectedMaxPadded(padded []int, batch int) float64 {
	n := float64(len(padded))
	var ev, fPrev float64
	for i := 0; i < len(padded); {
		v := padded[i]
		j := i
		for j < len(padded) && padded[j] == v {
			j++
		}
		f := math.Pow(float64(j)/n, float64(batch))
		ev += (f - fPrev) * float64(v)
		fPrev = f
		i = j
	}
	return ev
}

// PadEfficiency is the expected effective-to-padded prefill token ratio
// the plan's formation policy achieves on a shape sample (1 = zero
// padding waste; FIFO on the PR 5 heavy-tailed mix sits near 0.39). The
// controller's capacity staircase weights library entries by it, so a
// policy that wastes less prefill earns proportionally more admitted
// load. Empty and all-unshaped samples return 1: constant-shape batches
// pad nothing under any policy.
func (p *Plan) PadEfficiency(shapes []Shape) float64 {
	padded, shaped := p.paddedPrompts(shapes)
	if !shaped || len(padded) == 0 {
		return 1
	}
	var eff float64
	for _, s := range shapes {
		pt := s.PromptTokens
		if pt <= 0 {
			pt = p.Pipe.Schema.PrefixTokens
		}
		eff += float64(pt)
	}
	n := float64(len(padded))
	batch := p.Steps[p.PrefixIdx].Batch
	var padTotal float64
	if q := p.Sched.ChunkQuantum; q > 0 {
		for _, v := range padded {
			padTotal += float64((v + q - 1) / q * q)
		}
	} else {
		switch p.Sched.FormPolicy {
		case PolicyBucketed:
			sort.Ints(padded)
			for i := 0; i < len(padded); {
				hi := padded[i]
				b := PadQuantum
				for b < hi {
					b <<= 1
				}
				j := i
				for j < len(padded) && padded[j] <= b {
					j++
				}
				padTotal += float64(j-i) * expectedMaxPadded(padded[i:j], batch)
				i = j
			}
		case PolicySorted:
			sort.Ints(padded)
			for i := 0; i < len(padded); i += batch {
				j := i + batch
				if j > len(padded) {
					j = len(padded)
				}
				padTotal += float64(j-i) * float64(padded[j-1])
			}
		default:
			sort.Ints(padded)
			padTotal = n * expectedMaxPadded(padded, batch)
		}
	}
	if padTotal <= 0 {
		return 1
	}
	if eff > padTotal {
		return 1
	}
	return eff / padTotal
}

// criticalPathTTFTWithPrefix is criticalPathTTFT with the prefix stage's
// full-batch latency overridden (the shape-weighted expectation).
func (p *Plan) criticalPathTTFTWithPrefix(prefixLatency float64) float64 {
	finish := p.cpScratch
	if finish == nil {
		finish = make([]float64, len(p.Steps))
	} else {
		for i := range finish {
			finish[i] = 0
		}
	}
	for i := range p.Steps {
		if i == p.DecodeIdx {
			continue
		}
		start := 0.0
		for _, j := range p.Preds[i] {
			start = math.Max(start, finish[j])
		}
		lat := p.Steps[i].Latency
		if i == p.PrefixIdx {
			lat = prefixLatency
		}
		finish[i] = start + lat
	}
	return finish[p.PrefixIdx]
}
