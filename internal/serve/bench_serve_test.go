package serve

import (
	"testing"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/trace"
)

// BenchmarkServeCaseIV is the serving perf trajectory point CI uploads
// (BENCH_serve.json): a 10k-request Poisson replay of Case IV at 1.5x
// analytical capacity and fixed time compression, reporting steady-state
// sustained QPS and p99 TTFT alongside ns/op.
func BenchmarkServeCaseIV(b *testing.B) {
	pipe, prof, sched := caseIVSetup(b)
	ref, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		b.Fatalf("schedule infeasible analytically: %v", err)
	}
	want := ref.Metrics
	const n = 10000
	reqs, err := trace.Poisson(n, 1.5*want.QPS, 42)
	if err != nil {
		b.Fatal(err)
	}
	speedup := (float64(n) / want.QPS) / 4.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
		b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
		b.ReportMetric(rep.QPSVsAnalytic, "QPSvsAnalytic")
	}
}

// BenchmarkServeHeterogeneous is the workload-realism trajectory point CI
// uploads (BENCH_shapes.json): a saturating Case I replay under
// heavy-tailed per-request prompt/output lengths, reporting sustained QPS,
// p99 TTFT, the pad-to-max padding-waste fraction, and the throughput
// ratio against the same arrivals served at the schema-constant shape.
func BenchmarkServeHeterogeneous(b *testing.B) {
	pipe, prof, sched := caseISetup(b)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		b.Fatal(err)
	}
	const n = 6000
	base, err := trace.Poisson(n, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	reqs := heavyShapes(b, base)
	shapes := shapesOf(reqs)
	want := plan.ShapeMetrics(shapes)
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
	}
	speedup := (float64(n) / want.QPS) / 4.0

	// Constant-shape baseline on the same arrival process.
	baseline := make([]trace.Request, len(reqs))
	for i, r := range reqs {
		r.PromptTokens, r.OutputTokens = 0, 0
		baseline[i] = r
	}
	brt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
	if err != nil {
		b.Fatal(err)
	}
	brep, err := brt.Serve(baseline)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
		b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
		b.ReportMetric(rep.PadWaste, "padWasteFrac")
		b.ReportMetric(rep.SustainedQPS/brep.SustainedQPS, "QPSvsConstantShape")
	}
}

// BenchmarkServeCaseIII is the iterative-retrieval serving trajectory
// point CI uploads (BENCH_iterative.json): a saturating Case III replay
// through the live decode loop, reporting sustained QPS, p99 TTFT, and
// the mean §5.3 stall-per-request alongside ns/op.
func BenchmarkServeCaseIII(b *testing.B) {
	pipe, prof, sched := caseIIISetup(b)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4000
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		b.Fatal(err)
	}
	reqs = trace.WithTriggers(reqs, plan.Round.RoundsPerSeq, pipe.Stages[plan.DecodeIdx].OutTokens, 7)
	speedup := (float64(n) / plan.Metrics.QPS) / 8.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup, FlushTimeout: iterFlush})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
		b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
		b.ReportMetric(rep.Stall.Mean, "meanStall_s")
	}
}

// BenchmarkServeCachedCaseI is the prefix/KV-cache trajectory point CI
// uploads (BENCH_cache.json): a hot Zipfian session-affine Case I trace on
// a prefill-bound schedule (2 prefix chips, where prefill credits move
// QPS), served once without a cache as the baseline and then with the
// real cache at batch formation. Reports the cached sustained QPS, the
// cached-vs-uncached throughput ratio (the headline — must clear 1.5x on
// this mix), the measured hit rate, and the saved-prefill-token count.
func BenchmarkServeCachedCaseI(b *testing.B) {
	pipe, prof, sched := caseISetup(b)
	sched.Groups[0].Chips = 2
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		b.Fatal(err)
	}
	const n = 6000
	reqs := hotTrace(b, n, 42)
	cfg := cache.Config{PrefixTokens: 40_000, ChunkTokens: pipe.Schema.ChunkTokens}
	credits, _, err := cache.ReplayCredits(cfg, reqs, pipe.Schema.PrefixTokens)
	if err != nil {
		b.Fatal(err)
	}
	want := plan.CachedMetrics(nil, credits)
	// Overdrive at 1.5x the cache-aware capacity: the uncached baseline
	// saturates at its own lower ceiling on the same arrivals.
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
	}
	speedup := (float64(n) / want.QPS) / 4.0

	brt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
	if err != nil {
		b.Fatal(err)
	}
	brep, err := brt.Serve(reqs)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cache.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup, Cache: c})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		if rep.Cache == nil {
			b.Fatal("cached replay reported no cache stats")
		}
		if r := rep.SustainedQPS / brep.SustainedQPS; r < 1.5 {
			b.Fatalf("cached QPS %.3fx the uncached baseline, want at least 1.5x", r)
		}
		b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
		b.ReportMetric(rep.SustainedQPS/brep.SustainedQPS, "QPSvsNoCache")
		b.ReportMetric(rep.Cache.HitRate, "hitRate")
		b.ReportMetric(float64(rep.Cache.SavedTokens), "savedPrefillTok")
		b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
	}
}

// BenchmarkServeBucketedCaseI is the batch-formation trajectory point CI
// uploads (BENCH_batch.json): a saturating heavy-tailed Case I replay on
// a prefill-bound schedule (2 prefix chips, where padding waste is the
// throughput ceiling), served under FIFO pad-to-max as the baseline and
// then under bucketed formation on the same arrivals. Reports the
// bucketed sustained QPS, p99 TTFT, padding-waste fraction, and the
// headline QPS ratio against FIFO — the refactor's acceptance number.
func BenchmarkServeBucketedCaseI(b *testing.B) {
	pipe, prof, sched := caseISetup(b)
	sched.Groups[0].Chips = 2
	bs := sched
	bs.FormPolicy = engine.PolicyBucketed
	plan, err := engine.Compile(pipe, bs, prof)
	if err != nil {
		b.Fatal(err)
	}
	const n = 6000
	base, err := trace.Poisson(n, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	reqs := heavyShapes(b, base)
	want := plan.ShapeMetrics(shapesOf(reqs))
	// Overdrive at 1.5x the bucketed capacity: the FIFO baseline
	// saturates at its own lower padded ceiling on the same arrivals.
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
	}
	speedup := (float64(n) / want.QPS) / 4.0

	frt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
	if err != nil {
		b.Fatal(err)
	}
	frep, err := frt.Serve(reqs)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := serverFor(pipe, prof, bs, Options{Speedup: speedup})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		if rep.PadWaste > 0.30 {
			b.Fatalf("padding waste %.4f, want at most 0.30", rep.PadWaste)
		}
		if r := rep.SustainedQPS / frep.SustainedQPS; r < 1.25 {
			b.Fatalf("QPS %.3fx the FIFO baseline, want at least 1.25x", r)
		}
		b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
		b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
		b.ReportMetric(rep.PadWaste, "padWasteFrac")
		b.ReportMetric(rep.SustainedQPS/frep.SustainedQPS, "QPSvsFIFO")
	}
}

// BenchmarkServeChunkedCaseI is the chunked-prefill companion point in
// BENCH_batch.json: the same prefill-bound heavy-tailed replay with the
// prefix running 256-token chunked prefill under FIFO order, against the
// unchunked FIFO baseline. Chunking pads each member to the quantum
// instead of the batch max, so the padding waste collapses even without
// reordering.
func BenchmarkServeChunkedCaseI(b *testing.B) {
	pipe, prof, sched := caseISetup(b)
	sched.Groups[0].Chips = 2
	cs := sched
	cs.ChunkQuantum = 256
	plan, err := engine.Compile(pipe, cs, prof)
	if err != nil {
		b.Fatal(err)
	}
	const n = 6000
	base, err := trace.Poisson(n, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	reqs := heavyShapes(b, base)
	want := plan.ShapeMetrics(shapesOf(reqs))
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
	}
	speedup := (float64(n) / want.QPS) / 4.0

	frt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
	if err != nil {
		b.Fatal(err)
	}
	frep, err := frt.Serve(reqs)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := serverFor(pipe, prof, cs, Options{Speedup: speedup})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		if rep.PadWaste > 0.30 {
			b.Fatalf("padding waste %.4f, want at most 0.30", rep.PadWaste)
		}
		if r := rep.SustainedQPS / frep.SustainedQPS; r < 1.25 {
			b.Fatalf("QPS %.3fx the FIFO baseline, want at least 1.25x", r)
		}
		b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
		b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
		b.ReportMetric(rep.PadWaste, "padWasteFrac")
		b.ReportMetric(rep.SustainedQPS/frep.SustainedQPS, "QPSvsFIFO")
	}
}
