package engine

import (
	"math"
	"slices"
	"sort"

	"rago/internal/perf"
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
	st := &p.Steps[p.PrefixIdx]
	b := n
	if b > st.Batch {
		b = st.Batch
	}
	r := st.Replicas
	if r > b {
		r = b
	}
	if pt := p.pr.shaped(&st.Stage, p.PrefixIdx, sh.PromptTokens, st.Chips, b, r); pt.OK {
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
	return p.decodePace(PadTokens(promptTok + p.GenTokens(outTok)/2))
}

// decodePace is the per-token decode pace at a padded live KV context.
func (p *Plan) decodePace(ctx int) float64 {
	st := &p.Steps[p.DecodeIdx]
	if pt := p.pr.shaped(&st.Stage, p.DecodeIdx, ctx, st.Chips, st.Batch, st.Replicas); pt.OK && pt.StepLatency > 0 {
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
// members, each costed at the padded maximum of its members, so under the
// plan's formation policy the expected batch latency is: for FIFO,
// E[L(pad(max of B draws))] over the whole distribution, computed exactly
// from the empirical CDF (P(max <= v) = F(v)^B) with each distinct padded
// length priced through the memoizing profiler; for Bucketed, the same
// expectation within each pow2 length bucket weighted by bucket mass
// (batches only ever mix within a bucket); for SortedWindow, consecutive
// blocks of the sorted distribution (a saturated window dispatches
// neighbors). That expectation replaces the constant-shape prefix latency
// in both the TTFT critical path and the prefix group's occupancy.
// Chunked-prefill plans (ChunkQuantum > 0) price the prefix in chunk terms
// instead: per-request occupancy is the request's own expected chunk
// count, and the TTFT contribution is the mean member completion within a
// full batch, reflecting chunk pipelining. Decode: slots free at each
// request's own output length, so the tier's throughput bound is
// DecodeBatch over the mean per-request generation time (iterative stalls
// included), and TPOT is the mean per-token pace. Stages whose cost is
// shape-independent keep their compiled occupancies.
func (p *Plan) ShapeMetrics(shapes []Shape) perf.Metrics {
	if len(shapes) == 0 {
		return p.Metrics
	}
	m := p.memo
	if m == nil {
		m = new(shapeMemo) // a compiled plan stays immutable: price cold
	}
	m.load(p, shapes)
	sumGen, sumOut := m.decodeSums(p)
	n := float64(len(shapes))
	meanGen := sumGen / n

	prefix := p.Steps[p.PrefixIdx]
	var deltaOcc, ttftPrefix float64
	if q := p.Sched.ChunkQuantum; q > 0 {
		var chunks float64
		for _, pt := range m.raw {
			chunks += float64((pt + q - 1) / q)
		}
		perReq := chunks / n * p.ChunkLatency
		schemaChunks := (p.Pipe.Schema.PrefixTokens + q - 1) / q
		deltaOcc = perReq - float64(schemaChunks)*p.ChunkLatency
		ttftPrefix = perReq * float64(prefix.Batch+1) / 2
	} else {
		// Expected full-batch prefix latency over the policy's padded-max
		// distribution.
		elPrefix := m.prefixLatency(p)
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

// shapeMemo is a shape sample normalized once, plus ShapeMetrics' two
// sample terms keyed on exactly the plan fields they read (a zero key
// matches no compiled step). An Evaluator's scratch plan keeps one across
// candidates: the policy, quantum, nprobe and fanout the search stamps onto
// a partial schedule never move the decode step, so each distinct decode or
// prefix step is priced once per sample — by the code a cold call runs, so
// bit-identically. Normalization reads only the fixed schema constants.
type shapeMemo struct {
	shapes []Shape // private copy: callers' samples are validated by content
	raw    []int   // effective prompts (schema constant when unshaped)
	padded []int   // raw on the padding grid, sorted
	ctx    []int   // padded live decode context; 0 for unshaped prompts
	shaped bool

	dec            decodeKey
	sumGen, sumOut float64
	pre            [PolicySorted + 1]prefixSlot // one per policy: the search cycles them
}

type decodeKey struct {
	step        Step
	pace, stall float64
}

type prefixSlot struct {
	step Step
	el   float64
}

// load makes shapes the memo's sample, re-normalizing it and dropping both
// terms unless it equals the current sample by content.
func (m *shapeMemo) load(p *Plan, shapes []Shape) {
	if slices.Equal(m.shapes, shapes) {
		return
	}
	m.shapes = append(m.shapes[:0], shapes...)
	m.raw, m.padded, m.ctx, m.shaped = m.raw[:0], m.padded[:0], m.ctx[:0], false
	for _, s := range shapes {
		pr, ctx := s.PromptTokens, 0
		if pr > 0 {
			m.shaped = true
			ctx = PadTokens(pr + p.GenTokens(s.OutputTokens)/2)
		} else {
			pr = p.Pipe.Schema.PrefixTokens
		}
		m.raw, m.padded, m.ctx = append(m.raw, pr), append(m.padded, PadTokens(pr)), append(m.ctx, ctx)
	}
	sort.Ints(m.padded)
	m.dec, m.pre = decodeKey{}, [len(m.pre)]prefixSlot{}
}

// decodeSums is the decode-side term: the sample's summed slot holding
// time (GenTimeForShape plus the iterative stall) and generation length.
func (m *shapeMemo) decodeSums(p *Plan) (sumGen, sumOut float64) {
	key := decodeKey{p.Steps[p.DecodeIdx], p.DecodeStep, p.Iter.StallPerRequest}
	if m.dec == key {
		return m.sumGen, m.sumOut
	}
	for i, s := range m.shapes {
		gen := p.GenTimeFor(s.OutputTokens)
		if m.ctx[i] > 0 {
			gen = float64(p.GenTokens(s.OutputTokens)) * p.decodePace(m.ctx[i])
		}
		sumGen += gen + p.Iter.StallPerRequest
		sumOut += float64(p.GenTokens(s.OutputTokens))
	}
	m.dec, m.sumGen, m.sumOut = key, sumGen, sumOut
	return sumGen, sumOut
}

// prefixLatency is the non-chunked prefix term: the expected full-batch
// prefix latency under the plan's formation policy.
func (m *shapeMemo) prefixLatency(p *Plan) float64 {
	pol := p.Sched.FormPolicy // out of range only on a cold memo: Validate rejects it
	slot := &m.pre[min(uint(pol), uint(len(m.pre)-1))]
	if step := p.Steps[p.PrefixIdx]; slot.step != step {
		slot.step, slot.el = step, p.expectedPrefixLatency(m.padded, m.shaped, step.Batch, pol)
	}
	return slot.el
}

// expectedPrefixLatency prices a sorted padded sample's expected
// full-batch prefix latency under a formation policy. With every entry
// unshaped it degenerates to the precompiled latency for every policy.
func (p *Plan) expectedPrefixLatency(padded []int, shaped bool, batch int, pol BatchPolicy) float64 {
	if !shaped {
		return p.Steps[p.PrefixIdx].Latency
	}
	switch pol {
	case PolicyBucketed:
		// Batches never mix buckets: condition the padded-max expectation
		// within each pow2 bucket and weight by bucket mass.
		var el float64
		n := float64(len(padded))
		for i := 0; i < len(padded); {
			j := bucketEnd(padded, i)
			el += float64(j-i) / n * p.expectedMaxLatency(padded[i:j], batch)
			i = j
		}
		return el
	case PolicySorted:
		// A saturated sorted window dispatches consecutive sorted runs:
		// partition the sorted sample into blocks of `batch` and price
		// each request at its block's padded maximum.
		var el float64
		n := float64(len(padded))
		for i := 0; i < len(padded); i += batch {
			j := min(i+batch, len(padded))
			el += float64(j-i) / n * p.StepLatencyShaped(p.PrefixIdx, batch, Shape{PromptTokens: padded[j-1]})
		}
		return el
	}
	return p.expectedMaxLatency(padded, batch)
}

// bucketEnd is the end of the pow2 length bucket that starts at index i of
// a sorted padded sample.
func bucketEnd(padded []int, i int) int {
	b := PadQuantum
	for b < padded[i] {
		b <<= 1
	}
	j := i
	for j < len(padded) && padded[j] <= b {
		j++
	}
	return j
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
// pad nothing under any policy. Chunked-prefill plans pad each raw prompt
// straight to the chunk quantum, exactly as ChunkPrefill does.
func (p *Plan) PadEfficiency(shapes []Shape) float64 {
	var m shapeMemo
	m.load(p, shapes)
	if !m.shaped {
		return 1
	}
	q := p.Sched.ChunkQuantum
	var eff, padTotal float64
	for _, pt := range m.raw {
		eff += float64(pt)
		if q > 0 {
			padTotal += float64((pt + q - 1) / q * q)
		}
	}
	padded := m.padded
	n := float64(len(padded))
	batch := p.Steps[p.PrefixIdx].Batch
	if q <= 0 {
		switch p.Sched.FormPolicy {
		case PolicyBucketed:
			for i := 0; i < len(padded); {
				j := bucketEnd(padded, i)
				padTotal += float64(j-i) * expectedMaxPadded(padded[i:j], batch)
				i = j
			}
		case PolicySorted:
			for i := 0; i < len(padded); i += batch {
				j := min(i+batch, len(padded))
				padTotal += float64(j-i) * float64(padded[j-1])
			}
		default:
			padTotal = n * expectedMaxPadded(padded, batch)
		}
	}
	if padTotal <= 0 || eff > padTotal {
		return 1
	}
	return eff / padTotal
}

// criticalPathTTFTWithPrefix is criticalPathTTFT with the prefix stage's
// full-batch latency overridden (the shape-weighted expectation).
func (p *Plan) criticalPathTTFTWithPrefix(prefixLatency float64) float64 {
	lat := p.cpScratch
	if lat == nil {
		lat = make([]float64, len(p.Steps))
	}
	for i := range lat {
		lat[i] = p.Steps[i].Latency
	}
	lat[p.PrefixIdx] = prefixLatency
	return CriticalPathTTFT(p.Preds, lat, p.PrefixIdx)
}

// CriticalPathTTFT is the completion time of stage target on the unloaded
// latency chain: the longest path over per-stage latencies from the graph's
// entries through target. On a linear pipeline this is the plain sum of the
// stage latencies up to target; on a fan-out graph parallel branches overlap
// and only the slowest counts. preds lists each stage's predecessors, all
// earlier in stage order (pipeline.ValidateGraph), so the walk visits stages
// 0..target once and never reaches the decode stage behind the prefix. lat
// holds each stage's latency on entry; the walk overwrites the visited
// entries with their finish times, so callers pass scratch. Compiled plans
// and the schedule search both price TTFT through this one walk, which is
// what makes their values agree bit for bit.
func CriticalPathTTFT(preds [][]int, lat []float64, target int) float64 {
	for i := 0; i <= target; i++ {
		start := 0.0
		for _, j := range preds[i] {
			start = math.Max(start, lat[j])
		}
		lat[i] = start + lat[i]
	}
	return lat[target]
}
