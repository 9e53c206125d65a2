// Package engine compiles a (pipeline, schedule) pair into the single
// execution plan every evaluation layer shares. RAGO's premise is that one
// schedule abstraction — task placement, resource allocation, batching
// policy — should drive every way of looking at a RAG workload; Compile is
// where that abstraction is resolved, exactly once, into concrete per-stage
// steps (resource, batch, replicas, profiled latency), per-resource
// occupancies, the iterative-retrieval loop structure, and the assembled
// analytical metrics.
//
// Three executors consume the same *Plan:
//
//   - core.Optimizer prices every candidate schedule with Compile's
//     arithmetic (Evaluator; Algorithm 1 step 3), and its Compile yields
//     the plans the other two run;
//   - sim.ServeSim (sim.NewServeFromPlan) replays traces through
//     Plan.Steps as a discrete-event system;
//   - serve.Server (serve.NewServer) executes Plan.Steps live under
//     wall-clock pacing.
//
// Neither trace executor compiles a plan of its own, so each runs the plan
// the optimizer priced.
//
// The trace executors and the controller's replay make every request-level
// decision through one Core (core.go), over a Dispatcher per serial
// resource and a Seq per sequence (dispatch.go); one Loop (loop.go) orders
// timers, arrivals and core events, and one Tally (tally.go) counts.
//
// A compiled Plan is immutable and safe for concurrent use; partial-batch
// re-profiling (StepLatency) goes through the memoizing stageperf.Profiler.
package engine

import (
	"fmt"
	"math"

	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/stageperf"
)

// DecodeResource is the Step.Resource value of the decode tier, which is
// not a serial batching resource but a pool of continuous-batching slots.
const DecodeResource = -1

// Step describes how one pipeline stage executes under a schedule.
type Step struct {
	// Stage is the pipeline stage this step runs (copied for locality).
	Stage pipeline.Stage
	// Resource indexes Plan.Resources, or DecodeResource for decode.
	Resource int
	// Chips is the XPU count serving the step (CPU servers for
	// retrieval).
	Chips int
	// Batch is the full batch size the step dispatches at.
	Batch int
	// Replicas is the data-parallel replica count.
	Replicas int
	// Latency is the full-batch service time in seconds (retrieval
	// includes the CPU-to-XPU result transfer).
	Latency float64
	// QPS is the step's steady-state request throughput at Batch.
	QPS float64
}

// Resource is one serial execution unit of the schedule: an XPU placement
// group time-multiplexing its member stages, or one CPU retrieval tier
// (multi-source pipelines get one tier per source).
type Resource struct {
	// Name labels the resource ("group0", "retrieval", "retrieval1").
	Name string
	// Retrieval marks CPU retrieval tiers.
	Retrieval bool
	// Stages are the pipeline stage indices the resource serves.
	Stages []int
	// Occupancy is seconds of resource time per request, including
	// iterative-retrieval load and cross-retrieval pauses; 1/Occupancy
	// is the resource's saturation throughput.
	Occupancy float64
}

// Plan is the compiled execution plan for one (pipeline, schedule) pair.
type Plan struct {
	Pipe  pipeline.Pipeline
	Sched Schedule

	// Steps is parallel to Pipe.Stages.
	Steps []Step
	// Resources lists XPU groups in schedule order, then retrieval
	// tiers in stage order.
	Resources []Resource

	// Succs, Preds, and Entries are the pipeline's stage graph
	// materialized once at compile time, so executors traverse
	// adjacency slices instead of re-deriving them per event.
	Succs   [][]int
	Preds   [][]int
	Entries []int

	// PrefixIdx and DecodeIdx locate the main LLM stages; RetrievalIdxs
	// lists every retrieval stage (empty for retrieval-free pipelines).
	PrefixIdx     int
	DecodeIdx     int
	RetrievalIdxs []int

	// Iter is the §5.3 iterative-retrieval cost structure (zero-valued
	// for single-retrieval workloads).
	Iter IterCost
	// Round is the compiled per-round decode-loop structure the
	// executors run (nil for single-retrieval workloads). Its steps'
	// Resource fields index Resources: iterative rounds occupy the same
	// retrieval tier and prefix group the initial pass runs on.
	Round *IterRound

	// GenTime is the decode tier's full-batch generation time including
	// iterative stalls; Metrics the assembled analytical prediction
	// (QPSPerChip normalized by the chips the schedule allocates).
	GenTime float64
	Metrics perf.Metrics

	// DecodeStep is the per-token decode step latency at the full decode
	// batch — the pace shape-aware executors hold a decode slot at, so a
	// request generating k tokens occupies its slot for k*DecodeStep
	// (GenTimeFor).
	DecodeStep float64

	// ChunkLatency is the service time of one ChunkQuantum-token prefill
	// chunk on the prefix group (0 when chunked prefill is off). Executors
	// run chunked prefix batches as back-to-back chunks at this pace
	// (ChunkPrefill); it is compiled once so the hot path never touches
	// the profiler.
	ChunkLatency float64

	// pr prices the plan's stages: through the profiler alone on a
	// compiled Plan, through the worker's own memo first on an
	// Evaluator's scratch plan (pricer).
	pr pricer
	// cpScratch and memo, when non-nil, are the critical-path walk's
	// reusable buffer and ShapeMetrics' sample memo (shapeMemo). Only
	// Evaluator-owned scratch plans set them: a compiled Plan stays
	// immutable and concurrency-safe, so its walks allocate and it prices
	// every sample cold.
	cpScratch []float64
	memo      *shapeMemo
}

// Compile resolves a schedule against a pipeline into the shared
// execution plan. It is the only place schedule semantics (placement
// groups, retrieval tiers, decode pool, iterative loop) are interpreted;
// every error a schedule can produce surfaces here, descriptively,
// instead of inside one of the three executors.
func Compile(pipe pipeline.Pipeline, sched Schedule, prof *stageperf.Profiler) (*Plan, error) {
	if err := pipe.ValidateGraph(); err != nil {
		return nil, err
	}
	p := &Plan{}
	p.buildGraph(pipe)
	if err := compileInto(p, &pipe, sched, pricer{prof: prof}, true); err != nil {
		return nil, err
	}
	return p, nil
}

// buildGraph materializes the pipeline's stage graph onto the plan.
func (p *Plan) buildGraph(pipe pipeline.Pipeline) {
	n := len(pipe.Stages)
	p.Succs = make([][]int, n)
	p.Preds = make([][]int, n)
	p.Entries = nil
	for i := 0; i < n; i++ {
		p.Succs[i] = pipe.Succs(i)
	}
	for i, ss := range p.Succs {
		for _, s := range ss {
			p.Preds[s] = append(p.Preds[s], i)
		}
	}
	for i := 0; i < n; i++ {
		if len(p.Preds[i]) == 0 {
			p.Entries = append(p.Entries, i)
		}
	}
}

// Evaluator assembles the analytical metrics of schedules against one
// (pipeline, profiler) pair, reusing a scratch plan between calls. It runs
// the exact compileInto code path Compile runs — bit-identical metrics —
// but re-fills preallocated step/resource/graph storage instead of building
// a fresh immutable Plan per schedule, which is what the schedule search's
// innermost loop (thousands of surviving candidates per plan) needs. Its
// stage prices come from its own memo (pricer), so a worker evaluating
// candidates never takes the profiler's lock once its memo is warm. Not
// safe for concurrent use; each search worker owns one.
type Evaluator struct {
	pipe pipeline.Pipeline
	pr   pricer
	plan Plan
	err  error
}

// NewEvaluator validates the pipeline graph once and builds the evaluator.
func NewEvaluator(pipe pipeline.Pipeline, prof *stageperf.Profiler) (*Evaluator, error) {
	if err := pipe.ValidateGraph(); err != nil {
		return nil, err
	}
	e := &Evaluator{pipe: pipe, pr: pricer{prof: prof, memo: make(map[uint64]stageperf.Point)}}
	e.plan.buildGraph(pipe)
	e.plan.cpScratch = make([]float64, len(pipe.Stages))
	e.plan.memo = &shapeMemo{pre: make(map[prefixKey]float64)}
	// What PrefixCost and DecodeCost read of the scratch plan besides the
	// steps they price; every compile sets the same.
	e.plan.Pipe, e.plan.pr = pipe, e.pr
	e.plan.PrefixIdx, e.plan.DecodeIdx = pipe.Index(pipeline.KindPrefix), pipe.Index(pipeline.KindDecode)
	e.plan.Steps = make([]Step, len(pipe.Stages))
	for i := range e.plan.Steps {
		e.plan.Steps[i].Stage = pipe.Stages[i]
	}
	return e, nil
}

// Evaluate compiles sched into the scratch plan and returns its assembled
// metrics; ok is false when the schedule is infeasible.
func (e *Evaluator) Evaluate(sched Schedule) (perf.Metrics, bool) {
	if err := compileInto(&e.plan, &e.pipe, sched, e.pr, false); err != nil {
		return perf.Metrics{}, false
	}
	return e.plan.Metrics, true
}

// EvaluateShaped compiles sched into the scratch plan and returns its
// shape-weighted metrics over the given length sample — the policy-aware
// expected-padding pricing (ShapeMetrics at the schedule's own FormPolicy
// and ChunkQuantum) the schedule search scores candidates with when
// formation is a search dimension, memoized per sample (shapeMemo) and
// bit-identical to a cold Compile(...).ShapeMetrics. An empty sample falls
// back to the constant-shape metrics, bit-identical to Evaluate.
func (e *Evaluator) EvaluateShaped(sched Schedule, shapes []Shape) (perf.Metrics, bool) {
	if err := compileInto(&e.plan, &e.pipe, sched, e.pr, false); err != nil {
		return perf.Metrics{}, false
	}
	if len(shapes) == 0 {
		return e.plan.Metrics, true
	}
	return e.plan.ShapeMetrics(shapes), true
}

// compileInto resolves sched against pipe into p, which must carry a
// materialized stage graph for pipe (buildGraph). With alloc set, step and
// resource storage is freshly allocated and defensively copied so the
// result is immutable; without it, p's existing storage is re-filled and
// schedule-owned slices are aliased (the Evaluator's scratch discipline).
// Both paths execute the same arithmetic in the same order; pr only decides
// whether stage prices come from the profiler or an Evaluator's memo of
// the same values.
func compileInto(p *Plan, pipe *pipeline.Pipeline, sched Schedule, pr pricer, alloc bool) error {
	prof := pr.prof
	if err := sched.Validate(*pipe); err != nil {
		return err
	}

	iter, round, ok := IterativePlan(*pipe, prof, sched)
	if !ok {
		return fmt.Errorf("engine: iterative retrieval structure infeasible under schedule")
	}

	p.Pipe = *pipe
	p.Sched = sched
	p.PrefixIdx = pipe.Index(pipeline.KindPrefix)
	p.DecodeIdx = pipe.Index(pipeline.KindDecode)
	p.Iter = iter
	p.Round = round
	p.pr = pr
	p.ChunkLatency = 0 // scratch reuse: recomputed below when chunking is on
	if alloc || p.RetrievalIdxs == nil {
		p.RetrievalIdxs = pipe.Indices(pipeline.KindRetrieval)
	}
	if cap(p.Steps) < len(pipe.Stages) {
		p.Steps = make([]Step, len(pipe.Stages))
	}
	p.Steps = p.Steps[:len(pipe.Stages)]
	p.Resources = p.Resources[:0]
	qps := math.Inf(1)

	// Pre-decode XPU groups: time-multiplexed members contribute their
	// batch latency to TTFT and their summed per-request occupancy to
	// the group's throughput (§6.1). The group hosting the main prefix
	// additionally absorbs the iterative prefix passes.
	for gi, g := range sched.Groups {
		if !GroupMemFits(*pipe, prof, g) {
			return fmt.Errorf("engine: group %d models exceed %d-chip HBM", gi, g.Chips)
		}
		var occ float64
		for i, idx := range g.Stages {
			// Time-multiplexed groups bound per-phase replication by
			// the work one batch exposes (Fig. 14).
			if len(g.Stages) > 1 && g.ReplicasFor(i) > MaxPhaseReplicas(pipe.Stages[idx], g.Batch) {
				return fmt.Errorf("engine: group %d stage %v over-replicated for its phase work", gi, pipe.Stages[idx].Kind)
			}
			pt := pr.price(pipe, idx, 0, 0, g.Chips, g.Batch, g.ReplicasFor(i))
			if !pt.OK {
				return fmt.Errorf("engine: stage %v infeasible on %d chips at batch %d", pipe.Stages[idx].Kind, g.Chips, g.Batch)
			}
			if idx == p.PrefixIdx && sched.ChunkQuantum > 0 {
				// Chunked prefill: price one quantum-sized chunk once, then
				// express the stage's analytic contribution in chunk terms —
				// per-request occupancy is the request's own chunk count
				// (members pad to the quantum, not the batch max) and the
				// TTFT contribution is the mean member completion within a
				// full batch, since first tokens unblock at chunk
				// boundaries instead of batch end.
				cpt := pr.shaped(&pipe.Stages[idx], idx, sched.ChunkQuantum, g.Chips, 1, 1)
				if !cpt.OK {
					return fmt.Errorf("engine: chunk quantum %d infeasible for prefix on %d chips", sched.ChunkQuantum, g.Chips)
				}
				p.ChunkLatency = cpt.Latency
				pt.Latency, pt.QPS = chunkedPrefix(pipe.Schema.PrefixTokens, sched.ChunkQuantum, g.Batch, cpt.Latency)
			}
			p.Steps[idx] = Step{
				Stage:    pipe.Stages[idx],
				Resource: gi,
				Chips:    g.Chips,
				Batch:    g.Batch,
				Replicas: g.ReplicasFor(i),
				Latency:  pt.Latency,
				QPS:      pt.QPS,
			}
			occ += 1 / pt.QPS
			if idx == p.PrefixIdx {
				occ += iter.PrefixOccupancy
			}
		}
		// Fig. 14: when a retrieval separates collocated stages, the
		// group pauses for the retrieval round before resuming the
		// next inference phase (§7.1's second baseline inefficiency).
		pause, ok := pr.pause(pipe, g.Stages, sched.RetrievalServers, g.Batch, sched.NProbe, sched.ShardFanout)
		if !ok {
			return fmt.Errorf("engine: retrieval pause infeasible for group %d", gi)
		}
		occ += pause
		stages := g.Stages
		if alloc {
			stages = append([]int(nil), g.Stages...)
		}
		p.Resources = append(p.Resources, Resource{
			Name:      groupName(gi),
			Stages:    stages,
			Occupancy: occ,
		})
		qps = math.Min(qps, 1/occ)
	}

	// Retrieval tiers: one serial CPU resource per retrieval stage (a
	// multi-source fan-out queries independent corpora on independent
	// pools). The initial retrieval latency sits on the TTFT path;
	// iterative retrievals consume tier throughput (TPOT path).
	for i, ridx := range p.RetrievalIdxs {
		// The schedule's retrieval knobs tune the stage value itself:
		// profiler memoization, partial-batch re-pricing (StepLatency),
		// and both executors then cost the tuned scan automatically.
		rst := pipe.Stages[ridx].Tuned(sched.NProbe, sched.ShardFanout)
		rt := pr.price(pipe, ridx, sched.NProbe, sched.ShardFanout, sched.RetrievalServers, sched.RetrievalBatch, 1)
		if !rt.OK {
			return fmt.Errorf("engine: retrieval infeasible on %d servers at batch %d", sched.RetrievalServers, sched.RetrievalBatch)
		}
		name := "retrieval"
		if len(p.RetrievalIdxs) > 1 {
			name = retrievalName(i)
		}
		p.Steps[ridx] = Step{
			Stage:    rst,
			Resource: len(p.Resources),
			Chips:    sched.RetrievalServers,
			Batch:    sched.RetrievalBatch,
			Replicas: 1,
			Latency:  rt.Latency + prof.RetrievalTransferLatency(),
			QPS:      rt.QPS,
		}
		occ := 1/rt.QPS + iter.RetrievalOccupancy
		p.Resources = append(p.Resources, Resource{
			Name:      name,
			Retrieval: true,
			Stages:    p.RetrievalIdxs[i : i+1],
			Occupancy: occ,
		})
		qps = math.Min(qps, 1/occ)
	}

	// Resolve the iterative round's steps onto the plan's resources: the
	// rounds run on the same retrieval tier and prefix-hosting group the
	// initial pass was just placed on, so reuse those steps' resolved
	// resource indices (iterative schemas are single-source).
	if round != nil {
		round.Retrieval.Resource = p.Steps[p.RetrievalIdxs[0]].Resource
		round.Prefix.Resource = p.Steps[p.PrefixIdx].Resource
	}

	// Decode tier: continuous batching; worst-case TPOT is the step
	// latency plus iterative stalls amortized per token (§5.3).
	dec := pr.price(pipe, p.DecodeIdx, 0, 0, sched.DecodeChips, sched.DecodeBatch, sched.DecodeReplicasOrOne())
	if !dec.OK {
		return fmt.Errorf("engine: decode infeasible on %d chips at batch %d", sched.DecodeChips, sched.DecodeBatch)
	}
	p.Steps[p.DecodeIdx] = Step{
		Stage:    pipe.Stages[p.DecodeIdx],
		Resource: DecodeResource,
		Chips:    sched.DecodeChips,
		Batch:    sched.DecodeBatch,
		Replicas: sched.DecodeReplicasOrOne(),
		Latency:  dec.Latency,
		QPS:      dec.QPS,
	}
	p.GenTime = dec.Latency + iter.StallPerRequest
	p.DecodeStep = dec.StepLatency
	outTokens := float64(pipe.Stages[p.DecodeIdx].OutTokens)
	qps = math.Min(qps, float64(sched.DecodeBatch)/p.GenTime)

	p.Metrics = perf.Metrics{
		TTFT:       p.criticalPathTTFT(),
		TPOT:       p.GenTime / outTokens,
		QPS:        qps,
		QPSPerChip: qps / float64(sched.ChipsUsed()),
	}
	if len(p.RetrievalIdxs) > 0 {
		// The quality axis: measured recall of the schedule's retrieval
		// operating point (0 when no recall surface is calibrated).
		p.Metrics.Recall = prof.StageRecall(p.Steps[p.RetrievalIdxs[0]].Stage)
	}
	if !p.Metrics.Valid() {
		return fmt.Errorf("engine: schedule assembles to unphysical metrics %v", p.Metrics)
	}
	return nil
}

// groupName and retrievalName return the stable resource names as
// constants, so the scratch evaluator allocates none per candidate.
func groupName(i int) string {
	if i < len(groupNames) {
		return groupNames[i]
	}
	return fmt.Sprintf("group%d", i)
}

func retrievalName(i int) string {
	if i < len(retrievalNames) {
		return retrievalNames[i]
	}
	return fmt.Sprintf("retrieval%d", i)
}

var (
	groupNames     = [...]string{"group0", "group1", "group2", "group3", "group4", "group5", "group6", "group7"}
	retrievalNames = [...]string{"retrieval0", "retrieval1", "retrieval2", "retrieval3", "retrieval4", "retrieval5", "retrieval6", "retrieval7"}
)

// criticalPathTTFT is the completion time of the prefix stage on the
// unloaded latency chain: the longest path over full-batch step latencies
// from the pipeline entries through the prefix. On a linear pipeline this
// is the plain sum of every pre-decode stage latency; on a fan-out graph
// parallel branches overlap and only the slowest counts. The walk itself
// is CriticalPathTTFT (shape.go), which the schedule search also prices its
// candidates with; ShapeMetrics feeds it the shape-weighted prefix latency.
func (p *Plan) criticalPathTTFT() float64 {
	return p.criticalPathTTFTWithPrefix(p.Steps[p.PrefixIdx].Latency)
}

// Executable reports whether the executors can run the plan, with an error
// naming the schema when they cannot. Every plan Compile produces is
// executable, iterative decode loops included; this rejects only nil plans
// and hand-built iterative plans without their round structure, which
// would otherwise run silently as single-retrieval plans.
func (p *Plan) Executable() error {
	if p == nil {
		return fmt.Errorf("engine: nil plan")
	}
	if p.Pipe.Schema.Iterative() && p.Round == nil {
		return fmt.Errorf("engine: schema %q is iterative but its plan carries no decode-loop round structure; compile it through engine.Compile",
			p.Pipe.Schema.Name)
	}
	return nil
}

// CompatibleWith reports whether q executes the same stage graph as p —
// the precondition for hot-swapping a live runtime from one plan to the
// other: request state (per-stage predecessor counts, queue-entry times)
// is shaped by the graph, so only schedules of the same pipeline are
// interchangeable.
func (p *Plan) CompatibleWith(q *Plan) bool {
	if q == nil || len(p.Steps) != len(q.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i].Stage.Kind != q.Steps[i].Stage.Kind {
			return false
		}
		if len(p.Succs[i]) != len(q.Succs[i]) {
			return false
		}
		for j := range p.Succs[i] {
			if p.Succs[i][j] != q.Succs[i][j] {
				return false
			}
		}
	}
	return true
}

// NumSlots is the per-request bookkeeping width executors allocate: one
// slot per pipeline stage plus, on iterative plans, one per decode-loop
// round step (IterRetrievalSlot, IterPrefixSlot). The virtual slots sit
// past the pipeline stages so stage indices stay stable either way.
func (p *Plan) NumSlots() int {
	if p.Round != nil {
		return len(p.Steps) + 2
	}
	return len(p.Steps)
}

// IterRetrievalSlot and IterPrefixSlot are the virtual stage indices of
// the decode-loop round steps on iterative plans: executors queue parked
// sequences at these slots exactly like pipeline stages, so the rounds
// share the batching workers (and their serialization) with the initial
// retrieval and prefix. Only meaningful when Round is non-nil.
func (p *Plan) IterRetrievalSlot() int { return len(p.Steps) }
func (p *Plan) IterPrefixSlot() int    { return len(p.Steps) + 1 }

// ResourceStages returns the stage indices resource ri serves, with the
// iterative round's virtual slots appended to their owning resources —
// the one slot layout Core builds its per-resource queues from, so round
// batches contend with the regular stages on the same serial resource.
func (p *Plan) ResourceStages(ri int) []int {
	stages := p.Resources[ri].Stages
	if p.Round == nil {
		return stages
	}
	if ri == p.Round.Retrieval.Resource {
		stages = append(append([]int(nil), stages...), p.IterRetrievalSlot())
	}
	if ri == p.Round.Prefix.Resource {
		stages = append(append([]int(nil), stages...), p.IterPrefixSlot())
	}
	return stages
}

// SlotName returns the stable, human-readable name of a plan slot:
// pipeline stage kinds below len(Steps) ("rewrite-prefix", "retrieval",
// "prefix", ...), the decode loop's virtual round slots above
// ("iter-retrieval", "iter-prefix"). Per-stage telemetry rows and
// observability span names key on these, so they must stay stable across
// executors — the live runtime, the discrete-event simulator, and any
// trace viewer diffing the two label the same work the same way.
func (p *Plan) SlotName(idx int) string {
	switch {
	case idx < len(p.Steps):
		return p.Pipe.Stages[idx].Kind.String()
	case idx == p.IterRetrievalSlot():
		return "iter-retrieval"
	default:
		return "iter-prefix"
	}
}

// SlotNames returns SlotName for every slot (NumSlots entries).
func (p *Plan) SlotNames() []string {
	names := make([]string, p.NumSlots())
	for i := range names {
		names[i] = p.SlotName(i)
	}
	return names
}

// TrackName returns the stable name of the execution track serving a slot:
// the owning resource's name ("group0", "retrieval", ...) for stages on
// serial workers, "decode" for the continuous-batching decode pool. Span
// exports group work by track.
func (p *Plan) TrackName(idx int) string {
	if st := p.StepAt(idx); st.Resource >= 0 {
		return p.Resources[st.Resource].Name
	}
	return "decode"
}

// TrackNames returns TrackName for every slot (NumSlots entries).
func (p *Plan) TrackNames() []string {
	names := make([]string, p.NumSlots())
	for i := range names {
		names[i] = p.TrackName(i)
	}
	return names
}

// Shards returns the retrieval shard count of the profiler the plan was
// compiled against (0 or 1 means an unsharded tier). Executors use it to
// decide whether retrieval batches run — and trace — as a scatter-gather.
func (p *Plan) Shards() int { return p.pr.prof.Shards }

// EffectiveFanout normalizes the schedule's fanout knob against the shard
// count: values outside [1, Shards] mean consult every shard.
func (p *Plan) EffectiveFanout() int {
	n := p.Shards()
	if fo := p.Sched.ShardFanout; fo >= 1 && fo <= n {
		return fo
	}
	return n
}

// StepAt returns the step at a real or virtual stage index: pipeline
// steps below len(Steps), the iterative round's steps above.
func (p *Plan) StepAt(idx int) Step {
	switch {
	case idx < len(p.Steps):
		return p.Steps[idx]
	case idx == p.IterRetrievalSlot():
		return p.Round.Retrieval
	default:
		return p.Round.Prefix
	}
}

// StepLatency returns the service time of stage idx (real or virtual) at
// the actually formed batch size n: the precompiled latency at the full
// batch, a re-profiled one for partial batches. Infeasible partial points
// fall back to the full-batch latency.
func (p *Plan) StepLatency(idx, n int) float64 {
	st := p.StepAt(idx)
	if n >= st.Batch {
		return st.Latency
	}
	if st.Stage.Kind == pipeline.KindRetrieval {
		if pt := p.pr.prof.Eval(st.Stage, st.Chips, n); pt.OK {
			return pt.Latency + p.pr.prof.RetrievalTransferLatency()
		}
		return st.Latency
	}
	r := st.Replicas
	if r > n {
		r = n
	}
	if pt := p.pr.prof.EvalR(st.Stage, st.Chips, n, r); pt.OK {
		return pt.Latency
	}
	return st.Latency
}

// RetrievalPause returns the per-request idle time of an XPU group whose
// member stages span a retrieval: it must wait for the retrieval round
// between its phases, batch latency amortized over the batch. Spanned
// retrievals that run in parallel (fan-out sources on independent tiers)
// overlap, so the pause is the longest chain over the spanned-retrieval
// DAG, not the sum. nprobe and fanout tune the spanned scans (0 means the
// tier's base configuration); the optimizer's pre-schedule pricing passes
// the cheapest knob values it searches so the pause stays an optimistic
// (admissible) estimate. The boolean is false when the retrieval tier is
// infeasible at this batch. Exposed for the optimizer's incremental
// per-plan search, which prices group choices before full schedules
// exist.
func RetrievalPause(pipe *pipeline.Pipeline, prof *stageperf.Profiler, stages []int, servers, batch, nprobe, fanout int) (float64, bool) {
	return pricer{prof: prof}.pause(pipe, stages, servers, batch, nprobe, fanout)
}

// pause is RetrievalPause priced through pr.
func (pr pricer) pause(pipe *pipeline.Pipeline, stages []int, servers, batch, nprobe, fanout int) (float64, bool) {
	// Fixed backing arrays keep the common case (a handful of sources)
	// allocation-free; chain[i] is the longest chain ending at spanned[i].
	var spannedBuf [8]int
	var chainBuf [8]float64
	spanned, chain := spannedBuf[:0], chainBuf[:0]
	for ridx := range pipe.Stages {
		if pipe.Stages[ridx].Kind != pipeline.KindRetrieval {
			continue
		}
		before, after := false, false
		for _, idx := range stages {
			if pipe.Reaches(idx, ridx) {
				before = true
			}
			if pipe.Reaches(ridx, idx) {
				after = true
			}
		}
		if before && after {
			spanned = append(spanned, ridx)
		}
	}
	var pause float64
	for i, ridx := range spanned { // ascending index == topological order
		rt := pr.price(pipe, ridx, nprobe, fanout, servers, batch, 1)
		if !rt.OK {
			return 0, false
		}
		wait := rt.Latency / float64(batch)
		longest := wait
		for j, q := range spanned[:i] {
			if pipe.Reaches(q, ridx) && chain[j]+wait > longest {
				longest = chain[j] + wait
			}
		}
		chain = append(chain, longest)
		pause = math.Max(pause, longest)
	}
	return pause, true
}

// pricer prices the pipeline stages compileInto and RetrievalPause
// evaluate and the shaped stages a plan's ShapeMetrics evaluates. Without a
// memo every call goes to the profiler, whose shared cache hashes the whole
// stage value under a mutex; an Evaluator's pricer carries the worker's own
// memo, keyed by the stage's index and a few small integers packed into one
// word and read without a lock, so a search worker prices shaped and
// unshaped candidates alike without touching the profiler once its memo is
// warm. The profiler's NoMemo bypasses it, so a cold benchmark still re-runs
// the models.
type pricer struct {
	prof *stageperf.Profiler
	memo map[uint64]stageperf.Point
}

// stageKeyBits are the widths stageKey packs its fields into, in order:
// the pipeline stage index, the stage's variant, its chips (servers for
// retrieval), batch, and replicas. They sum to 64. The variant is what the
// stage is tuned or shaped to, and the index's kind says which: nprobe<<8 |
// fanout for a retrieval stage (price), the padded token length for a
// prefix or decode stage (shaped), 0 for the stage as the pipeline has it.
var stageKeyBits = [...]uint{6, 21, 13, 14, 10}

// stageKey packs one priced operating point into a memo key; ok is false
// when a field is negative or too wide, and the point is priced unmemoized.
func stageKey(idx, variant, chips, batch, replicas int) (k uint64, ok bool) {
	for i, v := range [...]int{idx, variant, chips, batch, replicas} {
		if v < 0 || v >= 1<<stageKeyBits[i] {
			return 0, false
		}
		k = k<<stageKeyBits[i] | uint64(v)
	}
	return k, true
}

// price evaluates pipeline stage idx, tuned to (nprobe, fanout), at chips,
// batch and replicas: the value prof.EvalR returns for that stage.
func (pr pricer) price(pipe *pipeline.Pipeline, idx, nprobe, fanout, chips, batch, replicas int) stageperf.Point {
	variant := -1 // a fanout too wide for its field prices unmemoized
	if fanout >= 0 && fanout < 1<<8 {
		variant = nprobe<<8 | fanout
	}
	k, ok := pr.key(idx, variant, chips, batch, replicas)
	if ok {
		if pt, hit := pr.memo[k]; hit {
			return pt
		}
	}
	pt := pr.prof.EvalR(pipe.Stages[idx].Tuned(nprobe, fanout), chips, batch, replicas)
	if ok {
		pr.memo[k] = pt
	}
	return pt
}

// shaped evaluates stage st — pipeline stage idx as the pipeline has it —
// at a padded token length (stageperf.ShapedStage's prompt for a prefix
// stage, stageperf.ShapedDecodeStage's live context for a decode stage), at
// chips, batch and replicas: the value prof.EvalR returns for the shaped
// stage.
func (pr pricer) shaped(st *pipeline.Stage, idx, tokens, chips, batch, replicas int) stageperf.Point {
	k, ok := pr.key(idx, tokens, chips, batch, replicas)
	if ok {
		if pt, hit := pr.memo[k]; hit {
			return pt
		}
	}
	var shaped pipeline.Stage
	if st.Kind.Autoregressive() {
		shaped = stageperf.ShapedDecodeStage(*st, tokens)
	} else {
		shaped = stageperf.ShapedStage(*st, tokens)
	}
	pt := pr.prof.EvalR(shaped, chips, batch, replicas)
	if ok {
		pr.memo[k] = pt
	}
	return pt
}

// key is stageKey for a memoizing pricer; ok is false when pr prices
// straight through the profiler.
func (pr pricer) key(idx, variant, chips, batch, replicas int) (uint64, bool) {
	if pr.memo == nil || pr.prof.NoMemo {
		return 0, false
	}
	return stageKey(idx, variant, chips, batch, replicas)
}

// GroupMemFits checks that the models collocated on a group fit together
// in the group's aggregate HBM: each distinct model is resident once per
// replica of the widest replication any of its stages uses (per-stage
// checks inside xpusim only see one model at a time). The bytes sum in
// first-appearance stage order, so the answer at the exact HBM boundary is
// the same on every call (float addition is not associative).
func GroupMemFits(pipe pipeline.Pipeline, prof *stageperf.Profiler, g GroupSchedule) bool {
	type resident struct {
		name  string
		bytes float64
		reps  int
	}
	var buf [8]resident
	models := buf[:0]
	for i, idx := range g.Stages {
		m := pipe.Stages[idx].Model
		if m.Name == "" {
			continue // retrieval has no model
		}
		k := 0
		for k < len(models) && models[k].name != m.Name {
			k++
		}
		if k == len(models) {
			models = append(models, resident{name: m.Name})
		}
		models[k].bytes = m.ParamBytes()
		models[k].reps = max(models[k].reps, g.ReplicasFor(i))
	}
	var need float64
	for _, r := range models {
		need += r.bytes * float64(r.reps)
	}
	usable := prof.Sim.Chip.HBMBytes * (1 - prof.Sim.P.HBMReserve) * float64(g.Chips)
	return need <= usable
}

// MaxPhaseReplicas bounds data-parallel replication by the work items one
// batch of the stage exposes (Fig. 14: a time-multiplexed group runs one
// phase at a time, so only that batch's work is available to replicate
// over).
func MaxPhaseReplicas(st pipeline.Stage, batch int) int {
	if st.Kind.Autoregressive() {
		return batch
	}
	items := st.Items
	if items < 1 {
		items = 1
	}
	return batch * items
}
