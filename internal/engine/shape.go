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
	tpot, decQPS := m.decode(p)
	ttftPrefix, deltaOcc := m.prefix(p)

	qps := math.Inf(1)
	for _, res := range p.Resources {
		occ := res.Occupancy
		if slices.Contains(res.Stages, p.PrefixIdx) {
			occ += deltaOcc
		}
		qps = math.Min(qps, 1/occ)
	}
	qps = math.Min(qps, decQPS)

	return perf.Metrics{
		TTFT:       p.criticalPathTTFTWithPrefix(ttftPrefix),
		TPOT:       tpot,
		QPS:        qps,
		QPSPerChip: qps / float64(p.Sched.ChipsUsed()),
		Recall:     p.Metrics.Recall, // shape-independent: the scan's quality axis
	}
}

// PrefixCost is what a formation makes of a prefix step: its per-request
// occupancy term as compiled and, over a shape sample, the latency
// ShapeMetrics puts on the TTFT path and the occupancy it adds to the
// prefix group (the compiled latency and 0 without one).
type PrefixCost struct{ Occupancy, TTFT, Delta float64 }

// PrefixCost prices the prefix stage on chips at batch and replicas under a
// formation policy and chunk quantum as compiling a schedule with that step
// and pricing it over shapes would, bit for bit, through the evaluator's
// memos and without the compile, which is how the schedule search prices
// its formation stampings. ok is false where the step or its chunk is
// infeasible. Like DecodeCost it overwrites the scratch plan.
func (e *Evaluator) PrefixCost(shapes []Shape, chips, batch, replicas int, pol BatchPolicy, quantum int) (PrefixCost, bool) {
	p := &e.plan
	pt := e.pr.price(&e.pipe, p.PrefixIdx, 0, 0, chips, batch, replicas)
	p.Sched.FormPolicy, p.Sched.ChunkQuantum, p.ChunkLatency = pol, quantum, 0
	if quantum > 0 && pt.OK {
		cpt := e.pr.shaped(&e.pipe.Stages[p.PrefixIdx], p.PrefixIdx, quantum, chips, 1, 1)
		p.ChunkLatency, pt.OK = cpt.Latency, cpt.OK
		pt.Latency, pt.QPS = chunkedPrefix(e.pipe.Schema.PrefixTokens, quantum, batch, cpt.Latency)
	}
	if !pt.OK {
		return PrefixCost{}, false
	}
	p.Steps[p.PrefixIdx] = Step{Stage: e.pipe.Stages[p.PrefixIdx], Chips: chips, Batch: batch, Replicas: replicas, Latency: pt.Latency, QPS: pt.QPS}
	c := PrefixCost{Occupancy: 1 / pt.QPS, TTFT: pt.Latency}
	if len(shapes) > 0 {
		p.memo.load(p, shapes)
		c.TTFT, c.Delta = p.memo.prefix(p)
	}
	return c, true
}

// DecodeCost prices the decode tier on chips at batch and replicas, each
// request stalled by stall, over shapes: the TPOT and the throughput bound
// ShapeMetrics gives a schedule with that tier, bit for bit, through the
// evaluator's memos and without the compile. ok is false where the tier is
// infeasible.
func (e *Evaluator) DecodeCost(shapes []Shape, chips, batch, replicas int, stall float64) (tpot, qps float64, ok bool) {
	p := &e.plan
	pt := e.pr.price(&e.pipe, p.DecodeIdx, 0, 0, chips, batch, replicas)
	if !pt.OK {
		return 0, 0, false
	}
	p.Steps[p.DecodeIdx] = Step{Stage: e.pipe.Stages[p.DecodeIdx], Resource: DecodeResource, Chips: chips, Batch: batch, Replicas: replicas, Latency: pt.Latency, QPS: pt.QPS}
	p.DecodeStep, p.Iter.StallPerRequest = pt.StepLatency, stall
	p.memo.load(p, shapes)
	tpot, qps = p.memo.decode(p)
	return tpot, qps, true
}

// chunkedPrefix is a chunked prefix step's full-batch latency and
// throughput: a schema-length prompt occupies the step for its chunk count
// of quantum-token chunks, and first tokens unblock at chunk boundaries,
// so the latency is the mean member completion within a full batch.
func chunkedPrefix(prompt, quantum, batch int, chunkLat float64) (lat, qps float64) {
	perReq := float64((prompt+quantum-1)/quantum) * chunkLat
	return perReq * float64(batch+1) / 2, 1 / perReq
}

// shapeMemo is a shape sample normalized once, plus ShapeMetrics' three
// sample terms keyed on exactly the plan fields they read (a zero key
// matches no compiled step or quantum). An Evaluator's scratch plan keeps one across
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
	pre            map[prefixKey]float64 // per prefix step and policy; nil when cold
	chunkQ         int                   // the quantum chunks counts at
	chunks         float64
}

type decodeKey struct {
	step        Step
	pace, stall float64
}

// prefixKey is what prefixLatency reads of a prefix step besides its stage,
// which is the pipeline's own on every plan a memo serves.
type prefixKey struct {
	chips, batch, replicas int
	lat                    float64
	pol                    BatchPolicy
}

// load makes shapes the memo's sample, re-normalizing it and dropping
// every term unless it equals the current sample by content.
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
	m.dec, m.chunkQ = decodeKey{}, 0
	clear(m.pre)
}

// chunkCount is the chunked-prefill term: the sample's summed
// per-request chunk count at quantum q.
func (m *shapeMemo) chunkCount(q int) float64 {
	if m.chunkQ != q {
		var chunks float64
		for _, pt := range m.raw {
			chunks += float64((pt + q - 1) / q)
		}
		m.chunkQ, m.chunks = q, chunks
	}
	return m.chunks
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

// decode is the decode-side terms: the TPOT (the sample's mean per-token
// pace) and the tier's throughput bound, its batch over the mean slot
// holding time.
func (m *shapeMemo) decode(p *Plan) (tpot, qps float64) {
	sumGen, sumOut := m.decodeSums(p)
	n := float64(len(m.shapes))
	meanGen := sumGen / n
	return meanGen / (sumOut / n), float64(p.Steps[p.DecodeIdx].Batch) / meanGen
}

// prefix is the prefix-side terms: the prefix latency on the TTFT path and
// the occupancy delta on the prefix group, in chunk terms for a chunked
// plan, else from the expected full-batch latency under the plan's policy.
func (m *shapeMemo) prefix(p *Plan) (ttft, delta float64) {
	st := &p.Steps[p.PrefixIdx]
	if q := p.Sched.ChunkQuantum; q > 0 {
		perReq := m.chunkCount(q) / float64(len(m.shapes)) * p.ChunkLatency
		schemaChunks := (p.Pipe.Schema.PrefixTokens + q - 1) / q
		return perReq * float64(st.Batch+1) / 2, perReq - float64(schemaChunks)*p.ChunkLatency
	}
	el := m.prefixLatency(p)
	return el, (el - st.Latency) / float64(st.Batch)
}

// prefixLatency is the non-chunked prefix term: the expected full-batch
// prefix latency under the plan's formation policy.
func (m *shapeMemo) prefixLatency(p *Plan) float64 {
	st, pol := &p.Steps[p.PrefixIdx], p.Sched.FormPolicy
	key := prefixKey{st.Chips, st.Batch, st.Replicas, st.Latency, pol}
	if el, ok := m.pre[key]; ok {
		return el
	}
	el := p.expectedPrefixLatency(m.padded, m.shaped, st.Batch, pol)
	if m.pre != nil { // a cold memo prices its one step once
		m.pre[key] = el
	}
	return el
}

// expectedPrefixLatency prices a sorted padded sample's expected
// full-batch prefix latency under a formation policy. With every entry
// unshaped it degenerates to the precompiled latency for every policy.
func (p *Plan) expectedPrefixLatency(padded []int, shaped bool, batch int, pol BatchPolicy) float64 {
	if !shaped {
		return p.Steps[p.PrefixIdx].Latency
	}
	return policyExpectation(padded, batch, pol, float64(len(padded)), func(v int) float64 {
		return p.StepLatencyShaped(p.PrefixIdx, batch, Shape{PromptTokens: v})
	})
}

// policyExpectation walks a sorted padded sample through the batches a
// saturated formation policy forms, pricing each request at its batch's
// padded maximum through cost, and returns the request-weighted sum over
// div: the sample size for a per-request expectation, 1 for a total.
// FIFO batches draw from the whole sample; Bucketed batches never mix
// pow2 length buckets, so the expectation conditions within each bucket
// and weights by bucket mass; a saturated SortedWindow dispatches
// consecutive sorted runs, so blocks of batch requests price at their
// block's maximum.
func policyExpectation(padded []int, batch int, pol BatchPolicy, div float64, cost func(int) float64) float64 {
	var sum float64
	switch pol {
	case PolicyBucketed:
		for i := 0; i < len(padded); {
			j := bucketEnd(padded, i)
			sum += float64(j-i) / div * expectedMax(padded[i:j], batch, cost)
			i = j
		}
	case PolicySorted:
		for i := 0; i < len(padded); i += batch {
			j := min(i+batch, len(padded))
			sum += float64(j-i) / div * cost(padded[j-1])
		}
	default:
		sum = float64(len(padded)) / div * expectedMax(padded, batch, cost)
	}
	return sum
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

// expectedMax is E[cost(max of batch draws)] over a sorted padded sample,
// computed exactly from the empirical CDF (P(max <= v) = F(v)^B) with
// cost read once per distinct padded length.
func expectedMax(padded []int, batch int, cost func(int) float64) float64 {
	n := float64(len(padded))
	var ev, fPrev float64
	for i := 0; i < len(padded); {
		v := padded[i]
		j := i
		for j < len(padded) && padded[j] == v {
			j++
		}
		f := math.Pow(float64(j)/n, float64(batch))
		ev += (f - fPrev) * cost(v)
		fPrev = f
		i = j
	}
	return ev
}

// PadEfficiency is the expected effective-to-padded prefill token ratio
// the plan's formation policy achieves on a shape sample (1 = zero
// padding waste; FIFO on a heavy-tailed lognormal mix sits near 0.39):
// the prefill a formation policy saves, in tokens rather than seconds.
// Empty and all-unshaped samples return 1: constant-shape batches pad
// nothing under any policy. Chunked-prefill plans pad each raw prompt
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
	if q <= 0 {
		padTotal = policyExpectation(m.padded, p.Steps[p.PrefixIdx].Batch, p.Sched.FormPolicy, 1,
			func(v int) float64 { return float64(v) })
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
