package serve

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// caseIVSetup builds the richest non-iterative pipeline (rewriter +
// retrieval + reranker, 5 XPU stages) with the same schedule the
// discrete-event validator is tested on.
func caseIVSetup(t testing.TB) (pipeline.Pipeline, *stageperf.Profiler, core.Schedule) {
	t.Helper()
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
	return pipe, prof, sched
}

// caseISetup is the simple single-retrieval pipeline from the sim tests.
func caseISetup(t testing.TB) (pipeline.Pipeline, *stageperf.Profiler, core.Schedule) {
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

// serverFor compiles sched for pipe on prof and builds a Server over the plan.
func serverFor(pipe pipeline.Pipeline, prof *stageperf.Profiler, sched engine.Schedule, opts Options) (*Server, error) {
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		return nil, err
	}
	return NewServer(plan, opts)
}

// TestRuntimeSaturationMatchesAnalytic is the headline cross-check: a
// 10k-request Poisson trace at 1.5x the analytical capacity, replayed
// through the live engine, must sustain the assembler's QPS within 15% —
// and equal the discrete-event validator on the same trace (the paced
// configuration is TestWallDriverMatchesHeapDriver's caseIV-saturation).
func TestRuntimeSaturationMatchesAnalytic(t *testing.T) {
	pipe, prof, sched := caseIVSetup(t)
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	const n = 10000
	reqs, err := trace.Poisson(n, 1.5*want.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	ratio := rep.SustainedQPS / want.QPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("runtime QPS %.2f vs analytical %.2f (ratio %.2f), want within 15%%",
			rep.SustainedQPS, want.QPS, ratio)
	}
	if rep.TTFT.P50 <= 0 || rep.TTFT.P99 < rep.TTFT.P50 {
		t.Errorf("TTFT quantiles implausible: %+v", rep.TTFT)
	}
	if math.Abs(rep.TPOT.P50-want.TPOT)/want.TPOT > 0.02 {
		t.Errorf("TPOT p50 %.5f vs analytical %.5f", rep.TPOT.P50, want.TPOT)
	}

	// Cross-check against the discrete-event simulator on the same trace.
	des, err := sim.NewServeFromPlan(rt.Plan())
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	matchesSim(t, "Case IV saturation", &rep.Report, res)
}

// TestRuntimeUnloadedTTFT checks the other calibration end: at batch 1 and
// trivial load the measured TTFT must equal the analytical latency chain.
func TestRuntimeUnloadedTTFT(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	sched.Groups[0].Batch = 1
	sched.RetrievalBatch = 1
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	reqs, err := trace.Poisson(50, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, FlushTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 50 {
		t.Fatalf("completed %d of 50", rep.Completed)
	}
	if math.Abs(rep.TTFT.Mean-want.TTFT)/want.TTFT > 0.05 {
		t.Errorf("unloaded TTFT %.4f vs analytical %.4f", rep.TTFT.Mean, want.TTFT)
	}
	if rep.Latency.Mean <= rep.TTFT.Mean {
		t.Errorf("full latency %v should exceed TTFT %v", rep.Latency.Mean, rep.TTFT.Mean)
	}
}

// TestRuntimeAdmissionControl overdrives a tiny in-flight bound with a
// burst and expects open-loop shedding to kick in while every admitted
// request still completes.
func TestRuntimeAdmissionControl(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	rep, err := rt.Serve(trace.Burst(n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted+rep.Rejected != n {
		t.Errorf("admitted %d + rejected %d != %d", rep.Admitted, rep.Rejected, n)
	}
	if rep.Rejected == 0 {
		t.Errorf("burst of %d against MaxInFlight=32 should shed load", n)
	}
	if rep.Completed != rep.Admitted {
		t.Errorf("completed %d != admitted %d", rep.Completed, rep.Admitted)
	}
}

// TestRuntimeRealRetrieval puts a live IVF-PQ index on the serving path and
// verifies every retrieval batch actually executed against it.
func TestRuntimeRealRetrieval(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	const dim = 16
	data := vectordb.GenClustered(1500, dim, 12, 0.4, 3)
	ix, err := vectordb.BuildIVFPQ(data, 16, dim/2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n, querySeed = 300, 41
	// The query storage is reused between batches, yet every batch must
	// carry exactly the vectors of its own generator stream: one
	// math/rand/v2 PCG seeded (s, s) with s = QuerySeed + the batch's first
	// request ID, Float32()*10 per coordinate.
	var mu sync.Mutex
	offStream := 0
	rt, err := serverFor(pipe, prof, sched, Options{
		Speedup: unpaced,
		Searcher: func(queries [][]float32) ([][]vectordb.Result, error) {
			matched := false
			for id := 0; id < n && !matched; id++ {
				seed := uint64(querySeed + id)
				rng := rand.New(rand.NewPCG(seed, seed))
				matched = true
				for _, q := range queries {
					for _, x := range q {
						matched = matched && x == rng.Float32()*10
					}
				}
			}
			if !matched {
				mu.Lock()
				offStream++
				mu.Unlock()
			}
			return ix.SearchBatch(queries, 10, 4)
		},
		QueryDim:  dim,
		QuerySeed: querySeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(n, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatalf("real-retrieval serve failed: %v", err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	if rep.Searches == 0 || rep.SearchQueries != n {
		t.Errorf("substrate saw %d batches / %d queries, want all %d queries", rep.Searches, rep.SearchQueries, n)
	}
	if rep.SearchWall.Max <= 0 {
		t.Errorf("real search wall time not measured: %+v", rep.SearchWall)
	}
	if offStream > 0 {
		t.Errorf("%d of %d batches carried queries off their seeded stream", offStream, rep.Searches)
	}
}

// TestRuntimeConcurrentReplay drives the full Case IV engine hard at high
// compression — primarily a data-race canary for `go test -race`.
func TestRuntimeConcurrentReplay(t *testing.T) {
	pipe, prof, sched := caseIVSetup(t)
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: 500, MaxInFlight: 256})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(2000, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Rejected != 2000 {
		t.Errorf("completed %d + rejected %d != 2000", rep.Completed, rep.Rejected)
	}
	if rep.Completed == 0 {
		t.Error("nothing completed")
	}
	for _, q := range rep.Queues {
		if q.PeakDepth < 0 || q.MeanFill < 0 || q.MeanFill > 1 {
			t.Errorf("queue stat out of range: %+v", q)
		}
	}
}

func TestRuntimeRejects(t *testing.T) {
	pipe, prof, sched := caseISetup(t)

	// Iterative pipelines are first-class now: a schedule without an
	// iterative batch still fails compilation (schedule validation), but
	// a complete one builds a live runtime.
	iterSchema := ragschema.CaseIII(8e9, 4)
	iterPipe, err := pipeline.Build(iterSchema)
	if err != nil {
		t.Fatal(err)
	}
	iterProf := stageperf.New(hw.XPUC, hw.EPYCHost, iterSchema)
	if _, err := serverFor(iterPipe, iterProf, sched, Options{}); err == nil {
		t.Error("iterative schedule without IterativeBatch should be rejected")
	}
	iterSched := sched
	iterSched.IterativeBatch = 8
	if _, err := serverFor(iterPipe, iterProf, iterSched, Options{}); err != nil {
		t.Errorf("iterative workload with a complete schedule should serve: %v", err)
	}

	bad := sched
	bad.DecodeChips = 0
	if _, err := serverFor(pipe, prof, bad, Options{}); err == nil {
		t.Error("invalid schedule should be rejected")
	}

	if _, err := serverFor(pipe, prof, sched, Options{Searcher: func([][]float32) ([][]vectordb.Result, error) { return nil, nil }}); err == nil {
		t.Error("Searcher without QueryDim should be rejected")
	}

	rt, err := serverFor(pipe, prof, sched, Options{Speedup: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Serve(nil); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := rt.Serve(trace.Burst(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Serve(trace.Burst(10)); err == nil {
		t.Error("second Serve on a single-use runtime should error")
	}
}

// caseVSetup builds the multi-source fan-out stage graph (two parallel
// retrieval sources joining on a reranker) with a fixed schedule.
func caseVSetup(t testing.TB) (pipeline.Pipeline, *stageperf.Profiler, core.Schedule) {
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

// TestRuntimeCaseVFanOutEndToEnd serves the non-linear stage-graph preset
// through the live engine: fan-out branches run on parallel retrieval
// tiers, the rerank join admits a request only after both sources
// answered, saturation throughput must match the compiled plan's
// analytical QPS within 15%, and the run must equal the discrete-event
// validator's (the paced configuration is TestWallDriverMatchesHeapDriver's
// caseV-fanout).
func TestRuntimeCaseVFanOutEndToEnd(t *testing.T) {
	pipe, prof, sched := caseVSetup(t)
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	const n = 6000
	reqs, err := trace.Poisson(n, 1.5*want.QPS, 11)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	ratio := rep.SustainedQPS / want.QPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("fan-out runtime QPS %.2f vs analytical %.2f (ratio %.2f), want within 15%%",
			rep.SustainedQPS, want.QPS, ratio)
	}
	// Both source tiers must actually have served batches.
	retrQueues := 0
	for _, q := range rep.Queues {
		if q.Stage == "retrieval" && q.Batches > 0 {
			retrQueues++
		}
	}
	if retrQueues != 2 {
		t.Errorf("%d retrieval tiers served batches, want both sources", retrQueues)
	}

	// Cross-check against the discrete-event simulator on the same trace.
	des, err := sim.NewServeFromPlan(rt.Plan())
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	matchesSim(t, "Case V fan-out", &rep.Report, res)
}

// TestRuntimeCaseVUnloadedTTFT: the live engine must overlap the parallel
// retrieval branches — unloaded TTFT equals the critical path (one
// retrieval + rerank + prefix), not the serialized sum.
func TestRuntimeCaseVUnloadedTTFT(t *testing.T) {
	pipe, prof, sched := caseVSetup(t)
	sched.Groups[0].Batch = 1
	sched.RetrievalBatch = 1
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	reqs, err := trace.Poisson(50, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, FlushTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 50 {
		t.Fatalf("completed %d of 50", rep.Completed)
	}
	if math.Abs(rep.TTFT.Mean-want.TTFT)/want.TTFT > 0.05 {
		t.Errorf("unloaded fan-out TTFT %.4f vs analytical %.4f (branches must overlap)", rep.TTFT.Mean, want.TTFT)
	}
}
