package serve

import (
	"math"
	"testing"
	"time"

	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// caseIIISetup builds the paper's Case III workload (decoder-initiated
// iterative retrieval, 4 retrievals per sequence: one up front plus three
// during decode) with a schedule whose iterative batch is healthy for its
// decode batch.
func caseIIISetup(t testing.TB) (pipeline.Pipeline, *stageperf.Profiler, core.Schedule) {
	t.Helper()
	schema := ragschema.CaseIII(8e9, 4)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := core.Schedule{
		Groups:           []core.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 4}},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      32,
		DecodeReplicas:   4,
		IterativeBatch:   16,
	}
	return pipe, prof, sched
}

// iterFlush is the flush timeout the Case III cross-checks run at: long
// enough that iterative rounds form full batches (the regime the §5.3
// batch-formation fixed point prices) instead of being truncated by the
// 50ms default.
const iterFlush = 0.25

// runCaseIII replays a saturating Poisson trace (shared trigger
// positions) through the live runtime, unpaced, for the given schedule and
// returns the compiled plan alongside the measured report.
func runCaseIII(t *testing.T, pipe pipeline.Pipeline, prof *stageperf.Profiler, sched core.Schedule, n int) (*engine.Plan, *Report) {
	t.Helper()
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	reqs = trace.WithTriggers(reqs, plan.Round.RoundsPerSeq, pipe.Stages[plan.DecodeIdx].OutTokens, 7)
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
	if rep.Stall.Mean <= 0 || rep.Stall.P99 < rep.Stall.P50 {
		t.Fatalf("iterative stall quantiles implausible: %+v", rep.Stall)
	}
	return plan, &rep.Report
}

// tokenSim runs the §5.3 token-level simulator at the plan's operating
// point: the same decode step pace, the same per-round service latencies
// (partial batches re-profiled through the plan), the same trigger count.
func tokenSim(t *testing.T, plan *engine.Plan) sim.IterativeResult {
	t.Helper()
	res, err := sim.RunIterative(sim.IterativeConfig{
		DecodeBatch:      plan.Sched.DecodeBatch,
		IterBatch:        plan.Sched.IterativeBatch,
		DecodeTokens:     plan.Steps[plan.DecodeIdx].Stage.OutTokens,
		RetrievalsPerSeq: plan.Round.RoundsPerSeq,
		StepTime:         plan.Round.DecodeStep,
		RetrievalLatency: func(b int) float64 { return plan.StepLatency(plan.IterRetrievalSlot(), b) },
		PrefixLatency:    func(b int) float64 { return plan.StepLatency(plan.IterPrefixSlot(), b) },
		Sequences:        400,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: reference value is zero", name)
	}
	if r := got / want; r < 1-tol || r > 1+tol {
		t.Errorf("%s: got %.4f vs reference %.4f (ratio %.2f), want within %.0f%%", name, got, want, r, 100*tol)
	}
}

// TestRuntimeCaseIIICrossCheck is the §5.3 acceptance check: the live
// runtime's saturation throughput and stall-per-request on a Case III
// replay must agree, within 15%, with (a) the analytical stall fixed point
// the optimizer prices schedules by and (b) the token-level discrete-event
// simulator RunIterative, and (c) equal the plan-level discrete-event
// validator ServeSim replaying the identical trace with identical trigger
// positions.
func TestRuntimeCaseIIICrossCheck(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	const n = 4000
	plan, rep := runCaseIII(t, pipe, prof, sched, n)

	// The model references are compared at the median stall, which sits
	// near their mean; the QPS checks integrate the whole distribution.

	// (a) Analytical: QPS from the assembled metrics, stall from the
	// fixed point.
	within(t, "runtime vs analytic QPS", rep.SustainedQPS, plan.Metrics.QPS, 0.15)
	within(t, "runtime vs analytic stall", rep.Stall.P50, plan.Iter.StallPerRequest, 0.15)

	// (b) Token-level simulator at the same operating point: generation
	// time including stalls bounds both QPS (DecodeBatch sequences in
	// flight) and the stall itself.
	tok := tokenSim(t, plan)
	ideal := float64(plan.Steps[plan.DecodeIdx].Stage.OutTokens) * plan.Round.DecodeStep
	within(t, "runtime vs RunIterative QPS", rep.SustainedQPS,
		float64(plan.Sched.DecodeBatch)/tok.MeanLatency, 0.15)
	within(t, "runtime vs RunIterative stall", rep.Stall.P50, tok.MeanLatency-ideal, 0.15)

	// (c) Plan-level discrete-event validator on the same trace.
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	reqs = trace.WithTriggers(reqs, plan.Round.RoundsPerSeq, pipe.Stages[plan.DecodeIdx].OutTokens, 7)
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, iterFlush)
	if err != nil {
		t.Fatal(err)
	}
	matchesSim(t, "Case III", rep, res)
	within(t, "runtime vs ServeSim mean stall", rep.Stall.Mean, res.MeanStall, 1e-9)
}

// TestRuntimeCaseIIICliff pins the Fig. 9b cliff: an iterative batch of 1
// under the same large decode batch starves the retrieval tier (every
// round pays the full tier latency for one sequence), so live QPS
// degrades by an integer factor against the healthy batching point —
// and the degraded throughput still matches the analytical tier-bound
// prediction and the token-level simulator within 15%. The live run is
// unpaced; TestWallDriverMatchesHeapDriver's caseIII-cliff row pins the
// paced run to the simulator.
func TestRuntimeCaseIIICliff(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	good, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	cliffSched := sched
	cliffSched.IterativeBatch = 1
	const n = 1200
	plan, rep := runCaseIII(t, pipe, prof, cliffSched, n)

	if plan.Metrics.QPS >= 0.5*good.Metrics.QPS {
		t.Fatalf("analytic cliff not steep: %.2f vs %.2f QPS", plan.Metrics.QPS, good.Metrics.QPS)
	}
	within(t, "cliff runtime vs analytic QPS", rep.SustainedQPS, plan.Metrics.QPS, 0.15)
	if rep.SustainedQPS >= 0.5*good.Metrics.QPS {
		t.Errorf("live cliff QPS %.2f did not degrade vs healthy point %.2f", rep.SustainedQPS, good.Metrics.QPS)
	}

	// The token-level simulator models the same tier queueing, so its
	// stall (which exceeds the analytical fixed point's — the closed
	// form prices the throughput bound, not the queueing behind it)
	// must match the live loop.
	tok := tokenSim(t, plan)
	within(t, "cliff runtime vs RunIterative QPS", rep.SustainedQPS,
		float64(plan.Sched.DecodeBatch)/tok.MeanLatency, 0.15)
	ideal := float64(plan.Steps[plan.DecodeIdx].Stage.OutTokens) * plan.Round.DecodeStep
	within(t, "cliff runtime vs RunIterative stall", rep.Stall.Mean, tok.MeanLatency-ideal, 0.15)
}

// TestServerSwitchIterativeDrain hot-swaps between two Case III plans
// mid-replay, under load, with sequences parked in iterative rounds at the
// switch instant: the retired epoch must keep its workers alive until
// every parked sequence resumed, finished its decode loop, and drained —
// zero dropped, zero double-served. The plans hold 32 and 64 decode slots,
// and each decode walk lives in a slot of the core that admitted it, so the
// report's quantiles are pinned to the bit: no walk may change across
// epochs. Runs under -race in CI.
func TestServerSwitchIterativeDrain(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	small, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	bigSched := sched
	bigSched.DecodeBatch = 64
	bigSched.IterativeBatch = 16
	big, err := engine.Compile(pipe, bigSched, prof)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3000
	rate := 1.3 * small.Metrics.QPS
	reqs, err := trace.Poisson(n, rate, 13)
	if err != nil {
		t.Fatal(err)
	}
	reqs = trace.WithTriggers(reqs, small.Round.RoundsPerSeq, pipe.Stages[small.DecodeIdx].OutTokens, 5)
	s, err := NewServer(small, Options{Speedup: unpaced, FlushTimeout: iterFlush})
	if err != nil {
		t.Fatal(err)
	}
	starts := []float64{0, reqs[n/3].Arrival, reqs[2*n/3].Arrival}
	switchAt(t, s, starts[1], big)
	switchAt(t, s, starts[2], small)
	rep, err := s.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	startedAt(t, rep, starts)
	if rep.Completed != n || rep.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want %d/0: parked sequences dropped or double-served across the switch", rep.Completed, rep.Rejected, n)
	}
	if rep.Switches != 2 || len(rep.Epochs) != 3 {
		t.Fatalf("switch history wrong: %d switches, %d epochs", rep.Switches, len(rep.Epochs))
	}
	var admitted int64
	for i, e := range rep.Epochs {
		admitted += e.Admitted
		if e.Admitted == 0 {
			t.Errorf("epoch %d admitted nothing", i)
		}
		if e.DrainedV < e.RetiredV || e.RetiredV < e.StartV {
			t.Errorf("epoch %d lifecycle out of order: %+v", i, e)
		}
	}
	if admitted != int64(n) {
		t.Errorf("epoch admissions sum to %d, want %d (each request on exactly one plan)", admitted, n)
	}
	if rep.Stall.Mean <= 0 {
		t.Errorf("iterative replay measured no stall: %+v", rep.Stall)
	}
	for _, c := range []struct {
		name string
		q    Quantiles
		bits [5]uint64 // mean, p50, p95, p99, max
	}{
		{"TTFT", rep.TTFT, [5]uint64{0x3fb1db5cd52cd261, 0x3fae95d5a8850650, 0x3fc2099bbd37bb00, 0x3fc9a47319829700, 0x3fe0e630c8a0afc0}},
		{"TPOT", rep.TPOT, [5]uint64{0x3f6e4695d8598b97, 0x3f6d6a2d7c5bf8a0, 0x3f72edfa7302ef50, 0x3f79172224c27e09, 0x3f80eec811962240}},
		{"Latency", rep.Latency, [5]uint64{0x400bfaafd2a0d2a2, 0x4007ed0346666076, 0x401eaecdcb298054, 0x402129f1aecf9512, 0x40230a0007dbaafc}},
		{"Stall", rep.Stall, [5]uint64{0x3fda7d7af80ee838, 0x3fd8cf7684008600, 0x3fe46b9cbeb2ed40, 0x3ff070f120eed360, 0x3ff9741ca5ca4940}},
	} {
		got := [5]float64{c.q.Mean, c.q.P50, c.q.P95, c.q.P99, c.q.Max}
		for i, v := range got {
			if math.Float64bits(v) != c.bits[i] {
				t.Errorf("%s quantiles %+v, want the pinned bits %#x", c.name, c.q, c.bits)
				break
			}
		}
	}
}

// TestRuntimeCaseIIITelemetry polls the windowed feed mid-replay on an
// iterative workload: the virtual round slots must surface in the
// per-stage depth gauges without corrupting the cumulative counters.
func TestRuntimeCaseIIITelemetry(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 21)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(n) / plan.Metrics.QPS // about a wall second
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup, FlushTimeout: iterFlush})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *ServerReport
	go func() {
		rep, err = rt.Serve(reqs)
		close(done)
	}()
	sawIterDepth := false
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		case <-time.After(25 * time.Millisecond):
			w := rt.Telemetry(30)
			for _, d := range w.Depths {
				if d.Stage == "iter-retrieval" || d.Stage == "iter-prefix" {
					sawIterDepth = true
				}
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	if !sawIterDepth {
		t.Error("telemetry never observed a parked iterative round mid-replay")
	}
	if w := rt.Telemetry(1e9); w.Completed != rep.Completed {
		t.Errorf("final cumulative window %+v disagrees with report %d", w, rep.Completed)
	}
	if math.IsNaN(rep.Stall.Mean) || rep.Stall.Mean <= 0 {
		t.Errorf("stall not measured: %+v", rep.Stall)
	}
}
