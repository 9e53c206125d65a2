// Package stageperf implements step 1 of the paper's Algorithm 1: the
// performance of each RAG pipeline stage evaluated individually under
// varying resource allocations and batch sizes, using the calibrated
// analytical models (xpusim for inference stages, retrieval for the vector
// search tier).
//
// A Profiler memoizes evaluations, since the schedule search (steps 2-3)
// revisits the same (stage, resources, batch) points across thousands of
// candidate schedules.
package stageperf

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"rago/internal/hw"
	"rago/internal/model"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/retrieval"
	"rago/internal/xpusim"
)

// Point is the evaluated performance of one stage at one operating point.
type Point struct {
	// Latency is the time the stage takes to serve one batch end to end
	// (for autoregressive stages: the full generation of the batch).
	Latency float64
	// QPS is the stage's steady-state request throughput on these
	// resources at this batch size.
	QPS float64
	// StepLatency is the per-token step time for autoregressive stages
	// (worst-case TPOT contribution); zero otherwise.
	StepLatency float64
	// Replicas is the data-parallel replica count this point assumes:
	// the stage's chips are split into Replicas groups each serving its
	// share of the batch. 1 means all chips cooperate on every batch.
	Replicas int
	// OK is false when the operating point is infeasible (model or KV
	// cache does not fit, shard exceeds host memory, ...).
	OK bool
}

// encodeChunkBatch is the internal chunk-level batch the database encoder
// runs at; context chunks are abundant (thousands per request) so the
// encoder always has full batches available.
const encodeChunkBatch = 64

// Profiler evaluates pipeline stages against a hardware catalog. It is
// safe for concurrent use: the schedule search fans plans out across
// goroutines that share one profiler.
type Profiler struct {
	Sim    xpusim.Simulator
	Host   hw.CPUHost
	Schema ragschema.Schema

	// NoMemo disables every memoization layer so each evaluation runs
	// the underlying analytical models from scratch. It exists for the
	// Optimize benchmark that quantifies what the caches buy; leave it
	// false everywhere else.
	NoMemo bool

	// Shards is the retrieval tier's shard count (0 or 1 means an
	// unsharded index): it scales fanout-restricted scan volume and adds
	// the scatter-gather merge cost. RecallMod, when set, is the
	// calibrated recall@k surface over (nprobe, fanout) — nil keeps
	// Recall at 0 everywhere (the pre-quality-axis behavior). Both are
	// configuration, set before the first evaluation: the memos key on
	// stage values only.
	Shards    int
	RecallMod *retrieval.RecallModel

	retrDB retrieval.DB
	mu     sync.Mutex
	models []model.Config // interned stage models; memoKey.model indexes it
	cache  map[memoKey]Point
	ccache map[memoKey][]Point
	ecache map[memoKey]Envelope
}

// memoKey names one stage operating point for the memos: every field of
// the stage's shape, its model as an index into the profiler's interned
// models, and chips and batch (the batch bound, for Envelope). The
// optimizer evaluates synthesized stages — e.g. iterative-retrieval prefix
// passes, shaped and tuned stages — that share a Kind with a main stage
// but differ in shape, so the whole shape is in the key; being all
// integers, it hashes in one pass.
type memoKey struct {
	kind                             pipeline.Kind
	model                            int
	seqLen, items, outTokens, ctxLen int
	nprobe, fanout, chips, batch     int
}

// keyLocked returns the memo key of st at (chips, batch), interning st's
// model; p.mu must be held. Interning matches the whole config, so two
// configs that share a Name never share an entry.
func (p *Profiler) keyLocked(st pipeline.Stage, chips, batch int) memoKey {
	m := slices.Index(p.models, st.Model)
	if m < 0 {
		m = len(p.models)
		p.models = append(p.models, st.Model)
	}
	return memoKey{st.Kind, m, st.SeqLen, st.Items, st.OutTokens, st.CtxLen,
		st.NProbe, st.ShardFanout, chips, batch}
}

// New builds a profiler for one workload on one hardware generation.
func New(chip hw.XPU, host hw.CPUHost, schema ragschema.Schema) *Profiler {
	return &Profiler{
		Sim:    xpusim.New(chip),
		Host:   host,
		Schema: schema,
		retrDB: DBFor(schema),
		cache:  make(map[memoKey]Point),
		ccache: make(map[memoKey][]Point),
		ecache: make(map[memoKey]Envelope),
	}
}

// DBFor derives the retrieval database description from a schema: PQ-coded
// multi-level trees for large offline corpora (§4), flat FP16 brute-force
// scans for real-time long-context databases (§5.2).
func DBFor(s ragschema.Schema) retrieval.DB {
	if s.ContextTokens > 0 || s.ScanFraction >= 1 {
		chunk := s.ChunkTokens
		if chunk <= 0 {
			chunk = 128
		}
		return retrieval.DB{
			NumVectors:   math.Max(s.DBVectors, 1),
			Dim:          s.VectorDim,
			CodeBytes:    float64(s.VectorDim) * 2,
			Levels:       1,
			ScanFraction: 1,
		}
	}
	db := retrieval.DB{
		NumVectors:   s.DBVectors,
		Dim:          s.VectorDim,
		CodeBytes:    math.Max(float64(s.VectorDim)/8, 1), // PQ: 1 byte per 8 dims
		ScanFraction: s.ScanFraction,
	}
	switch {
	case s.DBVectors >= 1e9:
		db.Levels = 3
		db.Fanout = 4096
	case s.DBVectors >= 1e6:
		db.Levels = 2
		db.Fanout = int(math.Ceil(math.Sqrt(s.DBVectors)))
	default:
		db.Levels = 1
		db.ScanFraction = 1
	}
	return db
}

// DB returns the derived retrieval database description.
func (p *Profiler) DB() retrieval.DB { return p.retrDB }

// MinRetrievalServers returns the smallest server count that holds the
// database in host memory.
func (p *Profiler) MinRetrievalServers() int {
	n := retrieval.MinServers(p.retrDB, p.Host)
	if n < 1 {
		n = 1
	}
	return n
}

// Eval returns the performance of stage st given chips accelerators (or,
// for retrieval, `chips` CPU servers) and the given request batch size,
// with all chips cooperating on every batch (one replica).
func (p *Profiler) Eval(st pipeline.Stage, chips, batch int) Point {
	return p.EvalR(st, chips, batch, 1)
}

// ShapedStage returns st with a per-request prompt length applied:
// promptTokens replaces the sequence length of prefix-type stages; zero
// (and every other stage kind) is the identity. Decode stages reshape
// through ShapedDecodeStage instead — their shape axis is the live KV
// context, not the prompt. Evaluating the returned stage through the
// profiler memoizes per shape for free — the memos key on every field of
// the stage's shape — which is what makes per-batch shape-aware costing
// affordable inside the executors' hot loops.
func ShapedStage(st pipeline.Stage, promptTokens int) pipeline.Stage {
	switch st.Kind {
	case pipeline.KindRewritePrefix, pipeline.KindPrefix:
		if promptTokens > 0 {
			st.SeqLen = promptTokens
		}
	}
	return st
}

// ShapedDecodeStage returns st with a per-request live KV context
// applied: ctxLen replaces the average context of decode-type stages, so
// long prompts price (and pace) their own decode steps instead of riding
// the schema mean. Zero ctxLen — and every non-decode kind — is the
// identity, keeping unshaped requests on the precompiled constant path
// bit for bit. Memoization works exactly as for ShapedStage.
func ShapedDecodeStage(st pipeline.Stage, ctxLen int) pipeline.Stage {
	switch st.Kind {
	case pipeline.KindRewriteDecode, pipeline.KindDecode:
		if ctxLen > 0 {
			st.CtxLen = ctxLen
		}
	}
	return st
}

// EvalR evaluates st with its chips split into `replicas` data-parallel
// groups of chips/replicas each; an incoming batch is split evenly across
// replicas (latency follows the per-replica sub-batch, throughput sums
// across replicas). Retrieval does not replicate — its servers already
// shard the database — so replicas must be 1 there. Only the per-group
// evaluation is memoized: the replica step is one divide and one multiply.
func (p *Profiler) EvalR(st pipeline.Stage, chips, batch, replicas int) Point {
	if chips < 1 || batch < 1 || replicas < 1 || chips%replicas != 0 {
		return Point{}
	}
	if st.Kind == pipeline.KindRetrieval {
		if replicas != 1 {
			return Point{}
		}
		return p.evalCached(st, chips, batch)
	}
	group := chips / replicas
	sub := (batch + replicas - 1) / replicas
	base := p.evalCached(st, group, sub)
	if !base.OK {
		return Point{}
	}
	return Point{
		Latency:     base.Latency,
		QPS:         float64(replicas) * base.QPS,
		StepLatency: base.StepLatency,
		Replicas:    replicas,
		OK:          true,
	}
}

// Candidates returns the Pareto-optimal replication choices for st at
// (chips, batch): low-replica points minimize latency, high-replica points
// maximize throughput. At most a handful of points survive. Results are
// memoized per (stage, chips, batch) and the cached slice itself is
// returned — callers must treat it as read-only (the schedule search calls
// this in its innermost loops, where a defensive copy per call was a
// measurable share of all allocation).
func (p *Profiler) Candidates(st pipeline.Stage, chips, batch int) []Point {
	return memo(p, p.ccache, st, chips, batch, func() []Point { return p.candidates(st, chips, batch) })
}

// Envelope is the roofline optimum of one stage over every batching and
// replication option a schedule search may use: no operating point of the
// stage on these resources, at any batch in [1, the queried bound] and any
// replica count, beats MinLatency on latency or MaxQPS on throughput. The
// schedule search's branch-and-bound uses envelopes as admissible bounds —
// optimistic on both axes by construction — to prune whole plans before
// profiling their candidate schedules.
type Envelope struct {
	// MinLatency is the smallest batch service latency of any operating
	// point (best-case TTFT contribution of the stage).
	MinLatency float64
	// MaxQPS is the highest steady-state throughput of any operating
	// point (best-case occupancy contribution, 1/MaxQPS).
	MaxQPS float64
	// OK is false when no operating point is feasible at all, in which
	// case no schedule using this stage at these resources exists.
	OK bool
}

// Envelope computes the stage's envelope over power-of-two batches in
// [1, maxBatch] and every replica candidate, memoized per
// (stage, chips, maxBatch).
func (p *Profiler) Envelope(st pipeline.Stage, chips, maxBatch int) Envelope {
	return memo(p, p.ecache, st, chips, maxBatch, func() Envelope {
		env := Envelope{MinLatency: math.Inf(1)}
		for b := 1; b <= maxBatch; b <<= 1 {
			for _, pt := range p.Candidates(st, chips, b) {
				env.OK = true
				if pt.Latency < env.MinLatency {
					env.MinLatency = pt.Latency
				}
				if pt.QPS > env.MaxQPS {
					env.MaxQPS = pt.QPS
				}
			}
		}
		return env
	})
}

func (p *Profiler) candidates(st pipeline.Stage, chips, batch int) []Point {
	var pts []Point
	for r := 1; r <= chips; r <<= 1 {
		pt := p.EvalR(st, chips, batch, r)
		if pt.OK {
			pts = append(pts, pt)
		}
		if st.Kind == pipeline.KindRetrieval {
			break
		}
	}
	// Pareto prune on (latency down, QPS up), preserving replica order.
	var out []Point
	for i, a := range pts {
		dominated := false
		for j, b := range pts {
			if i == j {
				continue
			}
			if b.Latency <= a.Latency && b.QPS >= a.QPS && (b.Latency < a.Latency || b.QPS > a.QPS) {
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

func (p *Profiler) evalCached(st pipeline.Stage, chips, batch int) Point {
	return memo(p, p.cache, st, chips, batch, func() Point {
		pt := p.eval(st, chips, batch)
		pt.Replicas = 1
		return pt
	})
}

// memo returns m's entry for st at (chips, batch), filling it on a miss;
// with NoMemo it calls fill every time. Concurrent misses on one key may
// both fill it: fill is pure, so either value is the same.
func memo[V any](p *Profiler, m map[memoKey]V, st pipeline.Stage, chips, batch int, fill func() V) V {
	if p.NoMemo {
		return fill()
	}
	p.mu.Lock()
	key := p.keyLocked(st, chips, batch)
	v, ok := m[key]
	p.mu.Unlock()
	if !ok {
		v = fill()
		p.mu.Lock()
		m[key] = v
		p.mu.Unlock()
	}
	return v
}

func (p *Profiler) eval(st pipeline.Stage, chips, batch int) Point {
	switch st.Kind {
	case pipeline.KindRetrieval:
		return p.evalRetrieval(st, chips, batch)
	case pipeline.KindEncode:
		return p.evalEncode(st, chips, batch)
	case pipeline.KindRewritePrefix, pipeline.KindPrefix:
		r, err := p.Sim.Prefix(st.Model, st.SeqLen, batch, chips)
		if err != nil {
			return Point{}
		}
		return Point{Latency: r.Latency, QPS: r.Throughput, OK: true}
	case pipeline.KindRerank:
		r, err := p.Sim.Prefix(st.Model, st.SeqLen, batch*st.Items, chips)
		if err != nil {
			return Point{}
		}
		return Point{Latency: r.Latency, QPS: r.Throughput / float64(st.Items), OK: true}
	case pipeline.KindRewriteDecode, pipeline.KindDecode:
		r, err := p.Sim.DecodeStep(st.Model, batch, st.CtxLen, chips)
		if err != nil {
			return Point{}
		}
		lat := float64(st.OutTokens) * r.Latency
		return Point{
			Latency:     lat,
			QPS:         float64(batch) / lat,
			StepLatency: r.Latency,
			OK:          true,
		}
	default:
		return Point{}
	}
}

// evalRetrieval treats chips as server count. The stage's NProbe and
// ShardFanout tune the scan: probe count scales leaf bytes linearly,
// fanout restriction drops the probed cells on unconsulted shards, and a
// sharded deployment pays a per-consulted-shard gather cost on top of the
// parallel scan.
func (p *Profiler) evalRetrieval(st pipeline.Stage, servers, batch int) Point {
	sys := retrieval.System{
		DB:                  p.retrDB.Tuned(st.NProbe, st.ShardFanout, p.Shards),
		Host:                p.Host,
		Servers:             servers,
		QueriesPerRetrieval: p.Schema.QueriesPerRetrieval,
	}
	r, err := sys.Estimate(batch)
	if err != nil {
		return Point{}
	}
	lat := r.Latency
	if p.Shards > 1 {
		fo := st.ShardFanout
		if fo <= 0 || fo > p.Shards {
			fo = p.Shards
		}
		lat += retrieval.GatherLatency(fo)
	}
	return Point{Latency: lat, QPS: float64(batch) / lat, OK: true}
}

// StageRecall returns the calibrated recall@k of a retrieval stage's
// (nprobe, fanout) operating point; 0 for non-retrieval stages or when no
// recall model is attached.
func (p *Profiler) StageRecall(st pipeline.Stage) float64 {
	if st.Kind != pipeline.KindRetrieval {
		return 0
	}
	return p.RecallMod.Recall(st.NProbe, st.ShardFanout)
}

// MaxRecall returns the attached recall surface's best value — the
// admissible upper bound the schedule search prunes recall with; 0 when no
// model is attached.
func (p *Profiler) MaxRecall() float64 { return p.RecallMod.MaxRecall() }

// evalEncode processes batch requests of st.Items chunks each at a fixed
// internal chunk batch; chunk supply is abundant so throughput is the
// chunk-processing rate divided by chunks per request. Unlike the
// latency-critical prefix stages, encoding is a pure throughput stage, so
// the throughput-optimal sharding is chosen (pipeline parallelism keeps
// small encoders efficient across many chips where tensor parallelism
// would shred their matmul shapes).
func (p *Profiler) evalEncode(st pipeline.Stage, chips, batch int) Point {
	cands := p.Sim.PrefixCandidates(st.Model, st.SeqLen, encodeChunkBatch, chips)
	if len(cands) == 0 {
		return Point{}
	}
	r := cands[0]
	for _, c := range cands[1:] {
		if c.Throughput > r.Throughput {
			r = c
		}
	}
	chunksPerSec := r.Throughput // chunk throughput at steady state
	if chunksPerSec <= 0 {
		return Point{}
	}
	totalChunks := float64(batch) * float64(st.Items)
	lat := totalChunks / chunksPerSec
	if lat < r.Latency {
		lat = r.Latency
	}
	return Point{Latency: lat, QPS: float64(batch) / lat, OK: true}
}

// RetrievalTransferLatency is the CPU-to-XPU result shipment per request
// (§4c) — modeled for completeness, negligible in practice.
func (p *Profiler) RetrievalTransferLatency() float64 {
	return retrieval.TransferTime(p.Schema.RetrievedTokens(), 2, retrieval.DefaultPCIeBW)
}

// String summarizes the profiler configuration.
func (p *Profiler) String() string {
	return fmt.Sprintf("stageperf{chip=%s schema=%s}", p.Sim.Chip.Name, p.Schema.Name)
}
