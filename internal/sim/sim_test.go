package sim

import (
	"math"
	"testing"

	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

func iterCfg(decodeBatch, iterBatch int) IterativeConfig {
	return IterativeConfig{
		DecodeBatch:      decodeBatch,
		IterBatch:        iterBatch,
		DecodeTokens:     256,
		RetrievalsPerSeq: 3, // 4 retrievals: 1 up front + 3 iterative
		StepTime:         0.01,
		Sequences:        400,
		Seed:             1,
	}
}

func TestIterativeNoRetrievalsIsIdeal(t *testing.T) {
	cfg := iterCfg(16, 4)
	cfg.RetrievalsPerSeq = 0
	r, err := RunIterative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.NormalizedLatency-1.0) > 0.01 {
		t.Errorf("no-retrieval normalized latency = %v, want 1.0", r.NormalizedLatency)
	}
	if r.Rounds != 0 {
		t.Errorf("rounds = %d, want 0", r.Rounds)
	}
}

func TestIterativeBatchOneNoIdleness(t *testing.T) {
	// Fig. 10b bottom row: iterative batch 1 with zero-latency rounds
	// costs nothing — every trigger dispatches immediately.
	r, err := RunIterative(iterCfg(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalizedLatency > 1.05 {
		t.Errorf("iter-batch-1 normalized latency = %v, want ~1.0", r.NormalizedLatency)
	}
}

func TestIterativeEqualBatchesIdleness(t *testing.T) {
	// Fig. 10b diagonal: matching iterative and decode batch sizes
	// produces severe idleness (paper: 1.71x at 4/4 up to 3.08x at
	// 256/256; 2.77x at 64/64).
	r, err := RunIterative(iterCfg(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalizedLatency < 1.8 || r.NormalizedLatency > 3.8 {
		t.Errorf("64/64 normalized latency = %v, want ~2.8 (paper 2.77)", r.NormalizedLatency)
	}
}

func TestIterativeIdlenessGrowsAlongDiagonal(t *testing.T) {
	// Paper diagonal: 1.71 (4/4) < 2.34 (16/16) < 2.77 (64/64).
	var prev float64
	for _, b := range []int{4, 16, 64} {
		r, err := RunIterative(iterCfg(b, b))
		if err != nil {
			t.Fatal(err)
		}
		if r.NormalizedLatency <= prev {
			t.Errorf("diagonal not increasing at %d/%d: %v <= %v", b, b, r.NormalizedLatency, prev)
		}
		prev = r.NormalizedLatency
	}
}

func TestIterativeSmallRatioIsCheap(t *testing.T) {
	// Fig. 10b: decode batch 64 with iterative batch <= 16 stays below
	// ~1.2x (paper 1.14 at 16, 1.07 at 8 ... on the 64-row).
	r16, err := RunIterative(iterCfg(64, 16))
	if err != nil {
		t.Fatal(err)
	}
	if r16.NormalizedLatency > 1.4 {
		t.Errorf("64/16 normalized latency = %v, want <= 1.4 (paper 1.14)", r16.NormalizedLatency)
	}
	r64, err := RunIterative(iterCfg(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r64.NormalizedLatency <= r16.NormalizedLatency {
		t.Errorf("larger iterative batch should cost more at fixed decode batch")
	}
}

func TestIterativeWithRoundLatency(t *testing.T) {
	// Non-zero retrieval+prefix latency must add to TPOT (Fig. 9a).
	fast, err := RunIterative(iterCfg(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := iterCfg(16, 4)
	cfg.RetrievalLatency = func(int) float64 { return 0.03 }
	cfg.PrefixLatency = func(int) float64 { return 0.02 }
	slow, err := RunIterative(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TPOT <= fast.TPOT {
		t.Errorf("round latency should raise TPOT: %v vs %v", slow.TPOT, fast.TPOT)
	}
	// Each sequence pays ~3 rounds of 50ms: TPOT delta ~ 3*0.05/256.
	wantDelta := 3 * 0.05 / 256.0
	gotDelta := slow.TPOT - fast.TPOT
	if gotDelta < wantDelta*0.5 || gotDelta > wantDelta*4 {
		t.Errorf("TPOT delta = %v, want ~%v", gotDelta, wantDelta)
	}
}

func TestIterativeDeterministic(t *testing.T) {
	a, err := RunIterative(iterCfg(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIterative(iterCfg(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestIterativeConfigValidation(t *testing.T) {
	bad := iterCfg(0, 1)
	if _, err := RunIterative(bad); err == nil {
		t.Errorf("zero decode batch should error")
	}
	bad = iterCfg(4, 4)
	bad.StepTime = 0
	if _, err := RunIterative(bad); err == nil {
		t.Errorf("zero step time should error")
	}
	bad = iterCfg(4, 4)
	bad.Sequences = 0
	if _, err := RunIterative(bad); err == nil {
		t.Errorf("zero sample should error")
	}
}

// serveSetup builds a Case I pipeline, profiler and a simple schedule.
func serveSetup(t *testing.T) (pipeline.Pipeline, *stageperf.Profiler, core.Schedule) {
	t.Helper()
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups:           []core.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}
	return pipe, prof, sched
}

// simFor compiles sched for pipe on prof and builds a simulator for the plan.
func simFor(pipe pipeline.Pipeline, prof *stageperf.Profiler, sched engine.Schedule) (*ServeSim, error) {
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		return nil, err
	}
	return NewServeFromPlan(plan)
}

func TestServeSimThroughputMatchesAnalytic(t *testing.T) {
	pipe, prof, sched := serveSetup(t)
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	// Saturating burst: throughput should match the analytical QPS
	// within 15% (batch-formation edges and drain effects cost a bit).
	res, err := s.Run(trace.Burst(3000), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.QPS / want.QPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("simulated QPS %.1f vs analytical %.1f (ratio %.2f), want within 15%%", res.QPS, want.QPS, ratio)
	}
}

func TestServeSimUnloadedTTFT(t *testing.T) {
	pipe, prof, sched := serveSetup(t)
	// Batch-1 schedule so the analytical latency chain and the
	// unloaded simulated TTFT coincide.
	sched.Groups[0].Batch = 1
	sched.RetrievalBatch = 1
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(50, 1, 5) // 1 QPS: effectively unloaded
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanTTFT-want.TTFT)/want.TTFT > 0.05 {
		t.Errorf("unloaded simulated TTFT %.4f vs analytical %.4f", res.MeanTTFT, want.TTFT)
	}
	if res.Completed != 50 {
		t.Errorf("completed %d of 50", res.Completed)
	}
	if res.MeanLatency <= res.MeanTTFT {
		t.Errorf("full latency %v should exceed TTFT %v", res.MeanLatency, res.MeanTTFT)
	}
}

func TestServeSimRejects(t *testing.T) {
	pipe, prof, sched := serveSetup(t)
	// Iterative pipelines simulate now; an incomplete schedule (no
	// iterative batch) still fails compilation, a complete one builds.
	iterSchema := ragschema.CaseIII(8e9, 4)
	iterPipe, err := pipeline.Build(iterSchema)
	if err != nil {
		t.Fatal(err)
	}
	iterProf := stageperf.New(hw.XPUC, hw.EPYCHost, iterSchema)
	if _, err := simFor(iterPipe, iterProf, sched); err == nil {
		t.Errorf("iterative schedule without IterativeBatch should be rejected")
	}
	iterSched := sched
	iterSched.IterativeBatch = 8
	if _, err := simFor(iterPipe, iterProf, iterSched); err != nil {
		t.Errorf("iterative workload with a complete schedule should simulate: %v", err)
	}
	bad := sched
	bad.DecodeChips = 0
	if _, err := simFor(pipe, prof, bad); err == nil {
		t.Errorf("invalid schedule should be rejected")
	}
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil, 0); err == nil {
		t.Errorf("empty trace should error")
	}
}
