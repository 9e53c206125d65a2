package sim

import (
	"testing"

	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// TestServeSimCaseIV pushes a full rewriter+reranker pipeline through the
// event simulator and checks it against the analytical assembly — the
// richest non-iterative pipeline shape (5 XPU stages + retrieval).
func TestServeSimCaseIV(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups: []core.GroupSchedule{
			{Stages: []int{0, 1}, Chips: 4, Batch: 4},  // rewrite prefix+decode
			{Stages: []int{3, 4}, Chips: 16, Batch: 4}, // rerank + prefix
		},
		RetrievalServers: 16,
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
	res, err := s.Run(trace.Burst(2000), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.QPS / want.QPS
	if ratio < 0.80 || ratio > 1.20 {
		t.Errorf("Case IV simulated QPS %.1f vs analytical %.1f (ratio %.2f)", res.QPS, want.QPS, ratio)
	}
	// Under a saturating burst the mean TTFT is queue-dominated; it
	// just has to be positive and finite.
	if res.MeanTTFT <= 0 {
		t.Errorf("mean TTFT = %v, want positive", res.MeanTTFT)
	}
}
