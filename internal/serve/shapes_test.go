package serve

import (
	"testing"
	"time"

	"rago/internal/engine"
	"rago/internal/sim"
	"rago/internal/trace"
)

// heavyShapes decorates a trace with the heavy-tailed per-request
// prompt/output lengths real RAG traffic shows (RAGPulse): lognormal
// prompts around the schema's 512-token constant and lognormal outputs
// around the 256-token constant, both with fat tails.
func heavyShapes(t testing.TB, reqs []trace.Request) []trace.Request {
	t.Helper()
	prompt, err := trace.LognormalLengths(512, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	output, err := trace.LognormalLengths(256, 0.7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return trace.WithShapes(reqs, prompt, output, 77)
}

func shapesOf(reqs []trace.Request) []engine.Shape {
	out := make([]engine.Shape, len(reqs))
	for i, r := range reqs {
		out[i] = engine.Shape{PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
	}
	return out
}

// TestRuntimeHeterogeneousCrossCheck is the acceptance check for
// heterogeneous request shapes: on a seeded heavy-tailed Case I trace, the
// live runtime's saturation QPS and mean TPOT must agree with the
// shape-weighted analytical estimate within 15%, and the live run must
// equal the discrete-event simulator on the same trace: completions, rate,
// mean TTFT and padding waste.
func TestRuntimeHeterogeneousCrossCheck(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}

	const n = 6000
	base, err := trace.Poisson(n, 1, 42) // arrival times rescaled below
	if err != nil {
		t.Fatal(err)
	}
	reqs := heavyShapes(t, base)
	want := plan.ShapeMetrics(shapesOf(reqs))
	if !(want.QPS < plan.Metrics.QPS) {
		t.Fatalf("heavy-tailed shape-weighted QPS %.2f should undercut constant %.2f", want.QPS, plan.Metrics.QPS)
	}
	// Overdrive at 1.5x the shape-weighted capacity: rescale the unit-rate
	// Poisson arrivals so the shape draw stays pinned to the request.
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
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

	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	within(t, "runtime QPS vs shape-weighted analytic", rep.SustainedQPS, want.QPS, 0.15)
	matchesSim(t, "heavy-tailed Case I", &rep.Report, res)
	within(t, "runtime mean TTFT vs event-sim", rep.TTFT.Mean, res.MeanTTFT, 1e-9)
	within(t, "runtime mean TPOT vs shape-weighted analytic", rep.TPOT.Mean, want.TPOT, 0.15)

	// Pad-to-max is genuinely wasteful on this mix, and both executors
	// must agree on how wasteful.
	if rep.PadWaste <= 0.05 || rep.PadWaste >= 0.9 {
		t.Errorf("runtime padding waste %.3f implausible for a heavy-tailed mix", rep.PadWaste)
	}
	if rep.PadWaste != res.PadWaste {
		t.Errorf("padding waste disagrees: runtime %v vs sim %v", rep.PadWaste, res.PadWaste)
	}
	// Per-shape-bucket quantiles: several buckets, and long-output
	// requests must show the same per-token pace as short ones (TPOT is
	// shape-invariant at a fixed decode batch) while spanning TTFTs.
	if len(rep.Shapes) < 3 {
		t.Fatalf("expected several shape buckets, got %+v", rep.Shapes)
	}
	var total int
	for _, s := range rep.Shapes {
		total += s.Count
		if s.Bucket == "schema" {
			t.Errorf("fully shaped trace produced a schema bucket")
		}
	}
	if total != n {
		t.Errorf("shape buckets cover %d of %d completions", total, n)
	}
}

// TestRuntimeHeterogeneousUnloadedTTFT pins the latency end of the
// cross-check: at batch 1 and trivial load, the measured mean TTFT over a
// shaped trace must match the shape-weighted analytical chain (which at
// batch 1 is the plain expectation over the prompt distribution) within
// 15%, and equal the discrete-event simulator's.
func TestRuntimeHeterogeneousUnloadedTTFT(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	sched.Groups[0].Batch = 1
	sched.RetrievalBatch = 1
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	base, err := trace.Poisson(80, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := heavyShapes(t, base)
	want := plan.ShapeMetrics(shapesOf(reqs))
	if !(want.TTFT > plan.Metrics.TTFT) {
		t.Fatalf("heavy prompts should stretch analytic TTFT: %.4f vs %.4f", want.TTFT, plan.Metrics.TTFT)
	}

	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, FlushTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", rep.Completed, len(reqs))
	}
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "unloaded shaped TTFT vs shape-weighted analytic", rep.TTFT.Mean, want.TTFT, 0.15)
	within(t, "unloaded shaped TTFT vs event-sim", rep.TTFT.Mean, res.MeanTTFT, 1e-9)
}

// TestRuntimeConstantShapeRegression: explicitly shaping every request at
// the schema constants must reproduce the unshaped replay's behaviour —
// the constant-shape path is the same code, so drift here means the
// shape-aware refactor changed historical results.
func TestRuntimeConstantShapeRegression(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(2000, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	schemaShaped := make([]trace.Request, len(reqs))
	for i, r := range reqs {
		r.PromptTokens = pipe.Schema.PrefixTokens
		r.OutputTokens = pipe.Schema.DecodeTokens
		schemaShaped[i] = r
	}

	// The discrete-event sim is deterministic, so equality here is exact.
	desA, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := desA.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	desB, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := desB.Run(schemaShaped, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if plain.QPS != shaped.QPS || plain.MeanTTFT != shaped.MeanTTFT || plain.MeanLatency != shaped.MeanLatency {
		t.Errorf("schema-constant shapes drifted from unshaped replay:\n plain  %+v\n shaped %+v", plain, shaped)
	}
	if shaped.PadWaste != 0 {
		t.Errorf("schema-constant shapes have no padding waste, got %.4f", shaped.PadWaste)
	}

	// The live runtime on the unshaped trace reports no shape buckets and
	// no padding waste — the report surface is unchanged for existing
	// traces.
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shapes) != 0 || rep.PadWaste != 0 {
		t.Errorf("unshaped replay grew shape artifacts: shapes %+v pad %.4f", rep.Shapes, rep.PadWaste)
	}
}

// TestTelemetryShapeBuckets: the windowed telemetry feed carries per-shape
// TTFT/TPOT quantiles mid-replay on heterogeneous traffic.
func TestTelemetryShapeBuckets(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	base, err := trace.Poisson(2500, 1.2*plan.Metrics.QPS, 13)
	if err != nil {
		t.Fatal(err)
	}
	reqs := heavyShapes(t, base)
	speedup := 2500 / plan.Metrics.QPS // about a wall second
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup})
	if err != nil {
		t.Fatal(err)
	}

	sawShapes := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			w := rt.Telemetry(1e9) // whole-run window
			if len(w.Shapes) >= 2 {
				var n int
				for _, s := range w.Shapes {
					n += s.Count
				}
				sawShapes <- n == w.Completed
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		sawShapes <- false
	}()
	if _, err := rt.Serve(reqs); err != nil {
		t.Fatal(err)
	}
	if !<-sawShapes {
		t.Error("telemetry window never exposed consistent shape buckets mid-replay")
	}
}

// TestRuntimeIterativeShapedSmoke: per-request output lengths compose with
// the §5.3 decode loop — triggers synthesize inside each request's own
// generation, both executors park at identical tokens, and the runtime
// equals the simulator.
func TestRuntimeIterativeShapedSmoke(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	base, err := trace.Poisson(n, 1.2*plan.Metrics.QPS, 21)
	if err != nil {
		t.Fatal(err)
	}
	output, err := trace.LognormalLengths(256, 0.5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.WithShapes(base, trace.LengthDist{}, output, 23)

	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, FlushTimeout: iterFlush})
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
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, iterFlush)
	if err != nil {
		t.Fatal(err)
	}
	matchesSim(t, "shaped Case III", &rep.Report, res)
	if rep.Stall.Max <= 0 {
		t.Error("iterative shaped replay recorded no stall")
	}
}
