package sim

import (
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// Golden constant-shape results, captured from the discrete-event
// simulator immediately before per-request shapes were introduced. The
// shape-aware costing path must leave shape-less traces on the exact
// historical numbers — the simulator is deterministic, so these are
// compared bit for bit. A drift here means the refactor changed the
// constant-shape semantics, not just added a shaped path.
func TestServeSimConstantShapeGolden(t *testing.T) {
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := engine.Schedule{
		Groups:           []engine.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const wantAnalyticQPS = 203.7367379897685
	if plan.Metrics.QPS != wantAnalyticQPS {
		t.Errorf("analytic QPS drifted: %.17g, want %.17g", plan.Metrics.QPS, wantAnalyticQPS)
	}
	reqs, err := trace.Poisson(3000, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Summary{
		Count:       engine.Count{Completed: 3000, QPS: 205.08542593602056},
		MeanTTFT:    0.073760364094233991,
		MeanLatency: 3.2074139114869626,
	}
	// Every formation policy degenerates to FIFO on constant-shape
	// traffic (one bucket / all sort keys equal), so the pre-refactor
	// golden must reproduce bit for bit under each of them.
	for _, pol := range []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted} {
		ps := sched
		ps.FormPolicy = pol
		plan, err := engine.Compile(pipe, ps, prof)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServeFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(reqs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != want.Completed || r.QPS != want.QPS ||
			r.MeanTTFT != want.MeanTTFT || r.MeanLatency != want.MeanLatency {
			t.Errorf("constant-shape Case I under %v drifted from the pre-shape golden:\n got  Completed=%d QPS=%.17g MeanTTFT=%.17g MeanLatency=%.17g\n want Completed=%d QPS=%.17g MeanTTFT=%.17g MeanLatency=%.17g",
				pol, r.Completed, r.QPS, r.MeanTTFT, r.MeanLatency,
				want.Completed, want.QPS, want.MeanTTFT, want.MeanLatency)
		}
		if r.PadWaste != 0 {
			t.Errorf("constant-shape trace under %v accrued padding waste %.17g", pol, r.PadWaste)
		}
	}
}

// TestServeSimIterativeConstantShapeGolden pins the §5.3 decode-loop path
// the same way: per-request output lengths must not move shape-less
// iterative replays off their historical numbers.
func TestServeSimIterativeConstantShapeGolden(t *testing.T) {
	schema := ragschema.CaseIII(8e9, 4)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := engine.Schedule{
		Groups:           []engine.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
		IterativeBatch:   8,
	}
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(1500, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Summary{
		Count:     engine.Count{Completed: 1500, QPS: 88.442242484580802},
		MeanTTFT:  0.36255653386005227,
		MeanStall: 0.81148571334212116,
	}
	for _, pol := range []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted} {
		ps := sched
		ps.FormPolicy = pol
		plan, err := engine.Compile(pipe, ps, prof)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServeFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(reqs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != want.Completed || r.QPS != want.QPS ||
			r.MeanTTFT != want.MeanTTFT || r.MeanStall != want.MeanStall {
			t.Errorf("constant-shape Case III under %v drifted from the pre-shape golden:\n got  Completed=%d QPS=%.17g MeanTTFT=%.17g MeanStall=%.17g\n want Completed=%d QPS=%.17g MeanTTFT=%.17g MeanStall=%.17g",
				pol, r.Completed, r.QPS, r.MeanTTFT, r.MeanStall,
				want.Completed, want.QPS, want.MeanTTFT, want.MeanStall)
		}
	}
}

// TestServeSimShapedBehaviour: on a shaped trace the simulator's padding
// accounting engages and heavy-tailed shapes strictly cost throughput
// versus the same arrivals at constant shape.
func TestServeSimShapedBehaviour(t *testing.T) {
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := engine.Schedule{
		Groups:           []engine.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(3000, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	prompt, err := trace.LognormalLengths(512, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	output, err := trace.LognormalLengths(256, 0.7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	shaped := trace.WithShapes(reqs, prompt, output, 3)

	sPlain, err := NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sPlain.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sShaped, err := NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := sShaped.Run(shaped, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !(heavy.QPS < plain.QPS) {
		t.Errorf("heavy-tailed shapes should cost throughput: %.2f vs constant %.2f", heavy.QPS, plain.QPS)
	}
	if heavy.PadWaste <= 0.05 || heavy.PadWaste >= 0.9 {
		t.Errorf("padding waste %.3f implausible", heavy.PadWaste)
	}
	if !(heavy.MeanTTFT > plain.MeanTTFT) {
		t.Errorf("padded prefill should stretch TTFT: %.4f vs %.4f", heavy.MeanTTFT, plain.MeanTTFT)
	}
}
