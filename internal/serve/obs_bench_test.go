package serve

import (
	"math"
	"testing"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/trace"
)

// BenchmarkServeObsOverhead is the observability-cost trajectory point CI
// uploads (BENCH_obs.json): the BenchmarkServeCaseIV replay served twice
// per iteration — once with a nil bus (every instrumentation site on its
// zero-cost fast path; its sustained QPS must be within 5% of the plan's
// analytic QPS) and once with a bus plus an attached deep-buffered Tracer
// (the full per-request firehose; its QPS must be within 5% of the nil
// bus's) — reporting both sustained rates and the traced/nil ratio.
func BenchmarkServeObsOverhead(b *testing.B) {
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

	run := func(bus *obs.Bus) *Report {
		rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup, Bus: bus})
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
		return &rep.Report
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nilRep := run(nil)

		bus := obs.NewBus()
		tr := obs.NewTracer()
		if err := tr.Attach(bus, 1<<18); err != nil {
			b.Fatal(err)
		}
		tracedRep := run(bus)
		tr.Close()

		if math.Abs(nilRep.QPSVsAnalytic-1) > 0.05 {
			b.Fatalf("nil-bus QPS %.3fx the plan's analytic QPS, want within 5%%", nilRep.QPSVsAnalytic)
		}
		if r := tracedRep.SustainedQPS / nilRep.SustainedQPS; math.Abs(r-1) > 0.05 {
			b.Fatalf("traced QPS %.3fx the nil-bus QPS, want within 5%%", r)
		}
		b.ReportMetric(nilRep.SustainedQPS, "nilBusQPS")
		b.ReportMetric(tracedRep.SustainedQPS, "tracedQPS")
		b.ReportMetric(tracedRep.SustainedQPS/nilRep.SustainedQPS, "tracedOverNil")
		b.ReportMetric(float64(tr.Dropped()), "tracerDropped")
	}
}
