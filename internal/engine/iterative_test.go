package engine

import (
	"math"
	"testing"

	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
)

// refIterativePlan is the §5.3 stall model written as one pass over the
// schedule: the round's retrieval and prefix points, the decode point and
// the fixed point in a single function. The split pricing must reproduce
// it bit for bit.
func refIterativePlan(pipe pipeline.Pipeline, prof *stageperf.Profiler, s Schedule) (IterCost, *IterRound, bool) {
	schema := pipe.Schema
	if !schema.Iterative() {
		return IterCost{}, nil, true
	}
	n := float64(schema.RetrievalFrequency - 1)
	bIter, bDec := s.IterativeBatch, s.DecodeBatch
	retrIdx := pipe.Index(pipeline.KindRetrieval)
	prefixIdx := pipe.Index(pipeline.KindPrefix)
	if retrIdx < 0 || prefixIdx < 0 {
		return IterCost{}, nil, false
	}
	gi := groupOf(prefixIdx, s)
	if gi < 0 {
		return IterCost{}, nil, false
	}
	prefixChips := s.Groups[gi].Chips
	rt := prof.Eval(pipe.Stages[retrIdx], s.RetrievalServers, bIter)
	if !rt.OK {
		return IterCost{}, nil, false
	}
	iterStage := pipe.Stages[prefixIdx]
	iterStage.SeqLen = schema.RetrievedTokens()
	if iterStage.SeqLen <= 0 {
		return IterCost{}, nil, false
	}
	var pt stageperf.Point
	for _, cand := range prof.Candidates(iterStage, prefixChips, bIter) {
		if !pt.OK || cand.QPS > pt.QPS {
			pt = cand
		}
	}
	if !pt.OK {
		return IterCost{}, nil, false
	}
	decIdx := pipe.Index(pipeline.KindDecode)
	dec := prof.EvalR(pipe.Stages[decIdx], s.DecodeChips, bDec, s.DecodeReplicasOrOne())
	if !dec.OK {
		return IterCost{}, nil, false
	}
	d := dec.Latency
	roundLat := rt.Latency + pt.Latency + prof.RetrievalTransferLatency()
	denom := 1 - float64(bIter-1)/(2*float64(bDec))
	if denom < minStallDenom {
		denom = minStallDenom
	}
	t := (d + n*roundLat) / denom
	if tMin := n * float64(bDec) / rt.QPS; t < tMin {
		t = tMin
	}
	if tMin := n * float64(bDec) / pt.QPS; t < tMin {
		t = tMin
	}
	cost := IterCost{StallPerRequest: t - d, RetrievalOccupancy: n / rt.QPS, PrefixOccupancy: n / pt.QPS}
	round := &IterRound{
		Retrieval: Step{Stage: pipe.Stages[retrIdx], Resource: -1, Chips: s.RetrievalServers, Batch: bIter,
			Replicas: 1, Latency: rt.Latency + prof.RetrievalTransferLatency(), QPS: rt.QPS},
		Prefix: Step{Stage: iterStage, Resource: -1, Chips: prefixChips, Batch: bIter,
			Replicas: pt.Replicas, Latency: pt.Latency, QPS: pt.QPS},
		RoundsPerSeq: schema.RetrievalFrequency - 1,
		DecodeStep:   d / float64(pipe.Stages[decIdx].OutTokens),
	}
	return cost, round, true
}

// costBits is an IterCost's three fields as bits, so equality is bit
// equality.
func costBits(c IterCost) [3]uint64 {
	return [3]uint64{math.Float64bits(c.StallPerRequest), math.Float64bits(c.RetrievalOccupancy), math.Float64bits(c.PrefixOccupancy)}
}

// stepBits is a round step with its floats as bits.
type stepBits struct {
	stage                        pipeline.Stage
	resource, chips, batch, repl int
	latency, qps                 uint64
}

func bitsOfStep(s Step) stepBits {
	return stepBits{s.Stage, s.Resource, s.Chips, s.Batch, s.Replicas, math.Float64bits(s.Latency), math.Float64bits(s.QPS)}
}

// TestIterativeSplitExact pins the split §5.3 pricing — IterativeTerms for
// the decode-independent round terms, IterTerms.Cost for the stall at one
// decode point — to the one-pass model, bit for bit, over Case III at
// retrieval frequencies 2, 4 and 8 on 8B and 70B models and a grid of
// retrieval servers, prefix chips, iterative batches 1–64, decode chips,
// decode batches and replica counts, feasible and infeasible alike.
// IterativeCost and IterativePlan must agree with it in every IterCost
// field and every field of the round; the terms must carry what the round
// is built from. Non-iterative schemas price nothing.
func TestIterativeSplitExact(t *testing.T) {
	var feasible, total int
	for _, params := range []float64{8e9, 70e9} {
		for _, rf := range []int{2, 4, 8} {
			schema := ragschema.CaseIII(params, rf)
			pipe, err := pipeline.Build(schema)
			if err != nil {
				t.Fatal(err)
			}
			prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
			prefixIdx := pipe.Index(pipeline.KindPrefix)
			decStage := pipe.Stages[pipe.Index(pipeline.KindDecode)]
			for _, servers := range []int{1, 4, 16, 32} {
				for _, pc := range []int{1, 4, 16, 64} {
					for bIter := 1; bIter <= 64; bIter <<= 1 {
						it, itOK := IterativeTerms(pipe, prof, servers, pc, bIter)
						for _, dc := range []int{1, 4, 16, 64} {
							for _, bd := range []int{1, 16, 256} {
								for _, reps := range []int{1, 4, 16} {
									s := Schedule{
										Groups:           []GroupSchedule{{Stages: []int{prefixIdx}, Chips: pc, Batch: 1}},
										RetrievalServers: servers,
										DecodeChips:      dc,
										DecodeBatch:      bd,
										DecodeReplicas:   reps,
										IterativeBatch:   bIter,
									}
									total++
									want, wantRound, wantOK := refIterativePlan(pipe, prof, s)
									ic, icOK := IterativeCost(pipe, prof, s)
									pc2, round, pOK := IterativePlan(pipe, prof, s)
									dec := prof.EvalR(decStage, dc, bd, reps)
									splitOK := itOK && dec.OK
									if icOK != wantOK || pOK != wantOK || splitOK != wantOK {
										t.Fatalf("%v rf %d %+v: ok cost %v plan %v split %v, one-pass %v", params, rf, s, icOK, pOK, splitOK, wantOK)
									}
									if !wantOK {
										continue
									}
									feasible++
									split := it.Cost(bd, dec.Latency)
									for name, got := range map[string]IterCost{"IterativeCost": ic, "IterativePlan": pc2, "split": split} {
										if costBits(got) != costBits(want) {
											t.Fatalf("%v rf %d %+v: %s %+v, one-pass %+v", params, rf, s, name, got, want)
										}
									}
									if bitsOfStep(round.Retrieval) != bitsOfStep(wantRound.Retrieval) ||
										bitsOfStep(round.Prefix) != bitsOfStep(wantRound.Prefix) ||
										round.RoundsPerSeq != wantRound.RoundsPerSeq ||
										math.Float64bits(round.DecodeStep) != math.Float64bits(wantRound.DecodeStep) {
										t.Fatalf("%v rf %d %+v: round %+v, one-pass %+v", params, rf, s, *round, *wantRound)
									}
									if it.Batch != bIter || it.Rounds != rf-1 || it.Servers != servers || it.PrefixChips != pc ||
										math.Float64bits(it.Retrieval.Latency+it.Transfer) != math.Float64bits(round.Retrieval.Latency) ||
										it.Retrieval.QPS != round.Retrieval.QPS ||
										it.Prefix.Latency != round.Prefix.Latency || it.Prefix.QPS != round.Prefix.QPS ||
										it.Prefix.Replicas != round.Prefix.Replicas {
										t.Fatalf("%v rf %d %+v: terms %+v do not carry round %+v", params, rf, s, it, *round)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The grid must exercise both outcomes.
	t.Logf("%d of %d grid schedules feasible", feasible, total)
	if feasible == 0 || feasible == total {
		t.Fatalf("%d of %d grid schedules feasible; the grid must hold both", feasible, total)
	}

	for _, schema := range []ragschema.Schema{ragschema.CaseI(8e9, 1), ragschema.CaseIV(8e9)} {
		pipe, err := pipeline.Build(schema)
		if err != nil {
			t.Fatal(err)
		}
		prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
		s := Schedule{
			Groups:           []GroupSchedule{{Stages: []int{pipe.Index(pipeline.KindPrefix)}, Chips: 16, Batch: 4}},
			RetrievalServers: 16,
			DecodeChips:      16,
			DecodeBatch:      64,
			DecodeReplicas:   4,
			IterativeBatch:   4,
		}
		if ic, ok := IterativeCost(pipe, prof, s); !ok || ic != (IterCost{}) {
			t.Errorf("%v: IterativeCost = %+v, %v; want zero", schema, ic, ok)
		}
		if ic, round, ok := IterativePlan(pipe, prof, s); !ok || ic != (IterCost{}) || round != nil {
			t.Errorf("%v: IterativePlan = %+v, %v, %v; want zero, nil", schema, ic, round, ok)
		}
		it, ok := IterativeTerms(pipe, prof, 16, 16, 4)
		if !ok || it != (IterTerms{}) || it.Cost(64, 1) != (IterCost{}) {
			t.Errorf("%v: IterativeTerms = %+v, %v; want zero terms costing nothing", schema, it, ok)
		}
	}
}

// TestIterativeCostAllocFree pins IterativeCost at zero allocations per
// call on a warm profiler: it prices the round terms and the stall without
// building the round IterativePlan hands the executors.
func TestIterativeCostAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	schema := ragschema.CaseIII(8e9, 4)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	s := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{pipe.Index(pipeline.KindPrefix)}, Chips: 16, Batch: 4}},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      32,
		DecodeReplicas:   4,
		IterativeBatch:   16,
	}
	if ic, ok := IterativeCost(pipe, prof, s); !ok || ic.StallPerRequest <= 0 {
		t.Fatalf("IterativeCost = %+v, %v; want a positive stall", ic, ok)
	}
	if n := testing.AllocsPerRun(200, func() { IterativeCost(pipe, prof, s) }); n != 0 {
		t.Errorf("IterativeCost allocates %.1f times per call, want 0", n)
	}
}
