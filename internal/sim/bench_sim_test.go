package sim

import (
	"testing"

	"rago/internal/core"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// BenchmarkServeSimCaseIV measures the discrete-event simulator's hot path
// on the richest non-iterative pipeline (rewriter + retrieval + reranker,
// 5 XPU stages) at saturation: a 2000-request burst, the same workload
// TestServeSimCaseIV validates. Plan compilation happens once outside the
// timer — the benchmark isolates the event loop (typed event heap, batch
// formation, continuous-batching decode pool). The reported
// sim-requests/sec metric is completed simulated requests per wall second.
func BenchmarkServeSimCaseIV(b *testing.B) {
	schema := ragschema.CaseIV(8e9)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		b.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups: []core.GroupSchedule{
			{Stages: []int{0, 1}, Chips: 4, Batch: 4},
			{Stages: []int{3, 4}, Chips: 16, Batch: 4},
		},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Burst(2000)
	b.ReportAllocs()
	b.ResetTimer()
	completed := 0
	for i := 0; i < b.N; i++ {
		res, err := s.Run(reqs, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		completed += res.Completed
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "sim-requests/sec")
}

// BenchmarkServeSimCaseIBucketed measures bucketed prefix formation under
// overload: shaped Case I (lognormal prompts, every fifth at the schema
// constant) with a 4-chip prefix group, its bottleneck, at 1.5x the plan's
// capacity over 4,000 Poisson arrivals, so the prefix backlog grows to
// ~2,000 through the run and every pick judges it. The reported
// sim-requests/sec metric is completed simulated requests per wall second.
func BenchmarkServeSimCaseIBucketed(b *testing.B) {
	s := bucketedCaseI(b, 4)
	base, err := trace.Poisson(4000, 1.5*s.plan.Metrics.QPS, 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs := mechanismShapes(b, base)
	b.ReportAllocs()
	b.ResetTimer()
	completed := 0
	for i := 0; i < b.N; i++ {
		res, err := s.Run(reqs, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		completed += res.Completed
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "sim-requests/sec")
}

// BenchmarkServeSimCaseIII measures the event loop with the §5.3 iterative
// decode loop live: sequences park at trigger positions and round batches
// contend with the initial pass for the same prefix-group servers, which
// multiplies the events per request versus the single-retrieval cases.
func BenchmarkServeSimCaseIII(b *testing.B) {
	schema := ragschema.CaseIII(8e9, 4)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		b.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups:           []core.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
		IterativeBatch:   8,
	}
	s, err := simFor(pipe, prof, sched)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Burst(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(reqs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
