package engine

import (
	"rago/internal/pipeline"
	"rago/internal/stageperf"
)

// IterCost aggregates what decoder-initiated iterative retrievals (§5.3)
// cost a schedule: the decode-side stall per request and the extra
// occupancy imposed on the retrieval tier and the prefix group. It is
// zero-valued for single-retrieval workloads.
type IterCost struct {
	// StallPerRequest is the total seconds a sequence spends paused for
	// iterative retrieval+prefix (batch-formation wait included).
	StallPerRequest float64
	// RetrievalOccupancy is retrieval-tier seconds per request consumed
	// by the iterative retrievals.
	RetrievalOccupancy float64
	// PrefixOccupancy is prefix-group seconds per request consumed by
	// processing newly retrieved content.
	PrefixOccupancy float64
}

// IterRound is the compiled per-round structure of the §5.3 decode loop:
// the two steps a parked batch of sequences traverses before rejoining
// continuous decode, plus the loop constants. Where IterCost prices the
// loop in aggregate (the closed-form stall fixed point), IterRound is what
// lets the executors — the discrete-event simulator and the live serving
// runtime — actually run the rounds: park at a trigger, form a batch of
// Retrieval.Batch parked sequences on the retrieval tier, pass the newly
// retrieved content through the prefix group, resume.
type IterRound struct {
	// Retrieval executes one iterative retrieval batch on the retrieval
	// tier; Prefix the pass over the newly retrieved content on the
	// prefix group's chips. Both run at Schedule.IterativeBatch and their
	// Resource fields index Plan.Resources (filled in by Compile), so the
	// rounds occupy the same serial workers the initial retrieval and
	// prefix run on.
	Retrieval Step
	Prefix    Step
	// RoundsPerSeq is the iterative retrieval count per sequence
	// (RetrievalFrequency minus the up-front retrieval).
	RoundsPerSeq int
	// DecodeStep is the per-token decode step latency at the full decode
	// batch (the decode tier's generation latency over its output
	// tokens) — the pace a sequence decodes at between parks.
	DecodeStep float64
}

// minStallDenom caps the batch-formation feedback loop: as the iterative
// batch approaches twice the decode batch, waiting sequences starve the
// trigger supply and the fixed point diverges; real systems limp along via
// continuous batching, which we model as a bounded (20x) slowdown cliff.
const minStallDenom = 0.05

// IterTerms are the decode-independent terms of the §5.3 stall model: what
// one iterative round costs on the retrieval tier and the prefix group at
// the iterative batch. They depend only on the retrieval servers, the
// prefix group's chips and the iterative batch, so every decode batch and
// replica count of a plan shares them; Cost applies them to one decode
// operating point. The zero value (Rounds 0) is a single-retrieval
// workload's, and costs nothing.
type IterTerms struct {
	// Batch is the iterative batch; Rounds the iterative retrievals per
	// sequence (RetrievalFrequency minus the up-front retrieval).
	Batch, Rounds int
	// Servers and PrefixChips are the resources the rounds run on.
	Servers, PrefixChips int
	// Retrieval is one round's retrieval at Batch on the servers, at the
	// base configuration (a schedule's nprobe and fanout knobs tune only
	// the up-front retrieval); Prefix
	// the pass over the newly retrieved content on the prefix group's
	// chips, at whatever replication maximizes its throughput (these
	// passes are pure decode-path overhead; their latency shows up as
	// stall, not TTFT).
	Retrieval, Prefix stageperf.Point
	// Transfer is the retrieval result's CPU-to-XPU transfer latency.
	Transfer float64
}

// IterativeTerms prices the decode-independent round terms of pipe's §5.3
// decode loop on servers retrieval servers and prefixChips prefix-group
// chips at iterative batch bIter. A single-retrieval pipeline gets the zero
// terms; ok is false where a round cannot run.
func IterativeTerms(pipe pipeline.Pipeline, prof *stageperf.Profiler, servers, prefixChips, bIter int) (IterTerms, bool) {
	schema := pipe.Schema
	if !schema.Iterative() {
		return IterTerms{}, true
	}
	retrIdx := pipe.Index(pipeline.KindRetrieval)
	iterStage, ok := iterPrefixStage(pipe)
	if retrIdx < 0 || !ok {
		return IterTerms{}, false
	}
	rt := prof.Eval(pipe.Stages[retrIdx], servers, bIter)
	if !rt.OK {
		return IterTerms{}, false
	}
	var pt stageperf.Point
	for _, cand := range prof.Candidates(iterStage, prefixChips, bIter) {
		if !pt.OK || cand.QPS > pt.QPS {
			pt = cand
		}
	}
	if !pt.OK {
		return IterTerms{}, false
	}
	return IterTerms{
		Batch:       bIter,
		Rounds:      schema.RetrievalFrequency - 1,
		Servers:     servers,
		PrefixChips: prefixChips,
		Retrieval:   rt,
		Prefix:      pt,
		Transfer:    prof.RetrievalTransferLatency(),
	}, true
}

// iterPrefixStage is the prefix stage re-shaped to the newly retrieved
// content an iterative round passes through the prefix group.
func iterPrefixStage(pipe pipeline.Pipeline) (pipeline.Stage, bool) {
	prefixIdx := pipe.Index(pipeline.KindPrefix)
	if prefixIdx < 0 {
		return pipeline.Stage{}, false
	}
	st := pipe.Stages[prefixIdx]
	st.SeqLen = pipe.Schema.RetrievedTokens()
	return st, st.SeqLen > 0
}

// Cost evaluates the §5.3 stall model at decode batch bDec, whose
// stall-free generation takes d seconds.
//
// With f retrievals per sequence, one happens up front and n = f-1 during
// decoding. Each iterative round costs the retrieval latency, the prefix
// pass over the newly retrieved content, and a batch-formation wait W: at
// trigger rate lambda = n*b_d/T (b_d active sequences, each firing n times
// over a generation lasting T), filling a batch of b_iter takes
// (b_iter-1)/(2*lambda) on average. Solving the fixed point
//
//	T = D + n*(L_ret + L_prefix) + n*W(T)
//
// gives T = (D + n*L) / (1 - (b_iter-1)/(2*b_d)). T is further lower-
// bounded by the retrieval tier's and prefix group's service rates: if
// iterative demand n*b_d exceeds what the tier sustains at batch b_iter,
// queueing stretches the generation (this is why tiny iterative batches
// hurt large decode batches in Fig. 9b).
func (it IterTerms) Cost(bDec int, d float64) IterCost {
	if it.Rounds == 0 {
		return IterCost{}
	}
	n := float64(it.Rounds)
	roundLat := it.Retrieval.Latency + it.Prefix.Latency + it.Transfer
	denom := 1 - float64(it.Batch-1)/(2*float64(bDec))
	if denom < minStallDenom {
		denom = minStallDenom
	}
	t := (d + n*roundLat) / denom

	// Throughput lower bounds: the tier must serve n*b_d iterative ops
	// per generation window.
	if tMin := n * float64(bDec) / it.Retrieval.QPS; t < tMin {
		t = tMin
	}
	if tMin := n * float64(bDec) / it.Prefix.QPS; t < tMin {
		t = tMin
	}
	return IterCost{
		StallPerRequest:    t - d,
		RetrievalOccupancy: n / it.Retrieval.QPS,
		PrefixOccupancy:    n / it.Prefix.QPS,
	}
}

// IterativeCost evaluates the §5.3 stall model for schedule s: its round
// terms (IterativeTerms) at its decode point's stall-free latency (Cost).
func IterativeCost(pipe pipeline.Pipeline, prof *stageperf.Profiler, s Schedule) (IterCost, bool) {
	cost, _, _, ok := iterative(pipe, prof, s)
	return cost, ok
}

// IterativePlan evaluates the §5.3 stall model as IterativeCost does and
// additionally compiles the per-round step structure the executors need.
// The round is nil for single-retrieval workloads; its Resource fields are
// left unset (Compile resolves them against the plan's resource list).
func IterativePlan(pipe pipeline.Pipeline, prof *stageperf.Profiler, s Schedule) (IterCost, *IterRound, bool) {
	cost, it, d, ok := iterative(pipe, prof, s)
	if !ok || it.Rounds == 0 {
		return cost, nil, ok
	}
	iterStage, _ := iterPrefixStage(pipe)
	round := &IterRound{
		Retrieval: Step{
			Stage:    pipe.Stages[pipe.Index(pipeline.KindRetrieval)],
			Resource: -1,
			Chips:    it.Servers,
			Batch:    it.Batch,
			Replicas: 1,
			Latency:  it.Retrieval.Latency + it.Transfer,
			QPS:      it.Retrieval.QPS,
		},
		Prefix: Step{
			Stage:    iterStage,
			Resource: -1,
			Chips:    it.PrefixChips,
			Batch:    it.Batch,
			Replicas: it.Prefix.Replicas,
			Latency:  it.Prefix.Latency,
			QPS:      it.Prefix.QPS,
		},
		RoundsPerSeq: it.Rounds,
		DecodeStep:   d / float64(pipe.Stages[pipe.Index(pipeline.KindDecode)].OutTokens),
	}
	return cost, round, true
}

// iterative is schedule s's §5.3 pricing, the one path IterativeCost and
// IterativePlan share: the round terms on its retrieval servers and prefix
// group, the decode point's stall-free latency d, and the cost they give.
func iterative(pipe pipeline.Pipeline, prof *stageperf.Profiler, s Schedule) (cost IterCost, it IterTerms, d float64, ok bool) {
	if !pipe.Schema.Iterative() {
		return IterCost{}, IterTerms{}, 0, true
	}
	gi := groupOf(pipe.Index(pipeline.KindPrefix), s)
	if gi < 0 {
		return IterCost{}, IterTerms{}, 0, false
	}
	if it, ok = IterativeTerms(pipe, prof, s.RetrievalServers, s.Groups[gi].Chips, s.IterativeBatch); !ok {
		return IterCost{}, IterTerms{}, 0, false
	}
	// Decode time without stalls.
	dec := prof.EvalR(pipe.Stages[pipe.Index(pipeline.KindDecode)], s.DecodeChips, s.DecodeBatch, s.DecodeReplicasOrOne())
	if !dec.OK {
		return IterCost{}, IterTerms{}, 0, false
	}
	return it.Cost(s.DecodeBatch, dec.Latency), it, dec.Latency, true
}

// groupOf finds which schedule group serves pipeline stage idx, or -1.
func groupOf(idx int, s Schedule) int {
	for gi, g := range s.Groups {
		for _, st := range g.Stages {
			if st == idx {
				return gi
			}
		}
	}
	return -1
}
