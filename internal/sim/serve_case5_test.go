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

// caseVSetup builds the multi-source fan-out pipeline (2 parallel
// retrieval sources joining on a reranker) with a fixed schedule.
func caseVSetup(t *testing.T) (pipeline.Pipeline, *stageperf.Profiler, core.Schedule) {
	t.Helper()
	schema := ragschema.CaseV(8e9, 2)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups:           []core.GroupSchedule{{Stages: []int{2, 3}, Chips: 16, Batch: 4}}, // rerank + prefix
		RetrievalServers: 8,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
	return pipe, prof, sched
}

// TestServeSimCaseVFanOut pushes the non-linear stage graph through the
// event simulator: both retrieval branches must execute (the join waits
// for the slower one) and saturation throughput must match the compiled
// plan's analytical QPS.
func TestServeSimCaseVFanOut(t *testing.T) {
	pipe, prof, sched := caseVSetup(t)
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.Burst(2000), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.QPS / want.QPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("Case V simulated QPS %.1f vs analytical %.1f (ratio %.2f), want within 15%%", res.QPS, want.QPS, ratio)
	}
	if res.Completed != 2000 {
		t.Errorf("completed %d of 2000", res.Completed)
	}
}

// TestServeSimCaseVUnloadedTTFT: at batch 1 and trivial load the measured
// TTFT must equal the critical path — the two parallel retrievals overlap,
// so the chain is one retrieval + rerank + prefix, not two retrievals.
func TestServeSimCaseVUnloadedTTFT(t *testing.T) {
	pipe, prof, sched := caseVSetup(t)
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
	reqs, err := trace.Poisson(50, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanTTFT-want.TTFT)/want.TTFT > 0.05 {
		t.Errorf("unloaded fan-out TTFT %.4f vs analytical %.4f (branches must overlap)", res.MeanTTFT, want.TTFT)
	}
}

// TestServeSimCaseIILongContext completes the cross-check matrix over the
// servable Table 3 cases (I and IV live in sim_test.go/serve_case4_test.go;
// III is iterative and modeled by RunIterative): the long-context pipeline
// with its real-time encode stage must also agree with the compiled plan's
// analytical QPS at saturation.
func TestServeSimCaseIILongContext(t *testing.T) {
	schema := ragschema.CaseII(8e9, 100_000)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups: []core.GroupSchedule{
			{Stages: []int{0}, Chips: 32, Batch: 2}, // encode
			{Stages: []int{2}, Chips: 16, Batch: 4}, // prefix
		},
		RetrievalServers: 1,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(trace.Burst(500), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.QPS / want.QPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("Case II simulated QPS %.2f vs analytical %.2f (ratio %.2f), want within 15%%", res.QPS, want.QPS, ratio)
	}
}
