package serve

import (
	"testing"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/sim"
	"rago/internal/trace"
)

// tracedServe replays reqs through the live runtime with a deep-buffered
// Tracer attached and returns the report plus the assembled per-request
// timelines.
func tracedServe(t *testing.T, opts Options, reqs []trace.Request) (*Report, []obs.RequestTrace) {
	t.Helper()
	pipe, prof, sched := caseIIISetup(t)
	bus := obs.NewBus()
	tr := obs.NewTracer()
	if err := tr.Attach(bus, 1<<17); err != nil {
		t.Fatal(err)
	}
	opts.Bus = bus
	rt, err := serverFor(pipe, prof, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events with a deep buffer", tr.Dropped())
	}
	return &rep.Report, tr.Requests()
}

// TestObsSpanParityServeVsSim is the structural cross-check the tracer
// makes possible: the live runtime (unpaced) and the discrete-event
// simulator, replaying the identical Case III trace (same seed, same
// trigger positions), must produce per-request timelines with the same
// admit set, the same ordered stage visits, and the same iterative stall
// rounds. TestWallDriverMatchesHeapDriver pins the timestamps too.
func TestObsSpanParityServeVsSim(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 160
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	reqs = trace.WithTriggers(reqs, plan.Round.RoundsPerSeq, pipe.Stages[plan.DecodeIdx].OutTokens, 7)

	_, live := tracedServe(t, Options{Speedup: unpaced, FlushTimeout: iterFlush}, reqs)

	simBus := obs.NewBus()
	simTr := obs.NewTracer()
	if err := simTr.Attach(simBus, 1<<17); err != nil {
		t.Fatal(err)
	}
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	des.Bus = simBus
	if _, err := des.Run(reqs, iterFlush); err != nil {
		t.Fatal(err)
	}
	simTr.Close()
	simulated := simTr.Requests()

	if len(live) != n || len(simulated) != n {
		t.Fatalf("assembled %d live / %d sim requests, want %d each", len(live), len(simulated), n)
	}
	for i := range live {
		lv, sv := live[i], simulated[i]
		if lv.ID != sv.ID {
			t.Fatalf("request %d: live ID %d vs sim ID %d", i, lv.ID, sv.ID)
		}
		if lv.Rejected || sv.Rejected {
			t.Fatalf("req %d rejected (live %v, sim %v) with no admission bound", lv.ID, lv.Rejected, sv.Rejected)
		}
		lvVisits, svVisits := lv.StageVisits(), sv.StageVisits()
		if len(lvVisits) != len(svVisits) {
			t.Fatalf("req %d visits: live %v vs sim %v", lv.ID, lvVisits, svVisits)
		}
		for j := range lvVisits {
			if lvVisits[j] != svVisits[j] {
				t.Fatalf("req %d visit %d: live %q vs sim %q (full: %v vs %v)",
					lv.ID, j, lvVisits[j], svVisits[j], lvVisits, svVisits)
			}
		}
		if len(lv.Stalls) != len(sv.Stalls) {
			t.Fatalf("req %d stall rounds: live %d vs sim %d", lv.ID, len(lv.Stalls), len(sv.Stalls))
		}
		for j := range lv.Stalls {
			if lv.Stalls[j].Round != sv.Stalls[j].Round {
				t.Fatalf("req %d stall %d round: live %d vs sim %d",
					lv.ID, j, lv.Stalls[j].Round, sv.Stalls[j].Round)
			}
		}
		if lv.Done <= 0 || sv.Done <= 0 {
			t.Fatalf("req %d unfinished: live done %g, sim done %g", lv.ID, lv.Done, sv.Done)
		}
	}

	// Both sides saw the §5.3 loop: every request parked once per
	// decode-initiated round.
	wantRounds := plan.Round.RoundsPerSeq
	if len(live[0].Stalls) != wantRounds {
		t.Fatalf("live stall rounds %d, want %d", len(live[0].Stalls), wantRounds)
	}
}

// TestObsBackpressureSlowSubscriber: a subscriber that never reads must
// cost the dataplane nothing but dropped events — the replay completes,
// the report's counts match a bus-free baseline, and every undelivered
// event shows up in the drop counters. Runs under -race in CI.
func TestObsBackpressureSlowSubscriber(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	speedup := (float64(n) / plan.Metrics.QPS) / 0.5

	run := func(bus *obs.Bus) *Report {
		rt, err := serverFor(pipe, prof, sched, Options{Speedup: speedup, Bus: bus})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return &rep.Report
	}

	base := run(nil)

	bus := obs.NewBus()
	stuck := bus.Subscribe(1) // one-slot buffer, never read
	rep := run(bus)

	if rep.Completed != base.Completed || rep.Rejected != base.Rejected || rep.Admitted != base.Admitted {
		t.Fatalf("slow subscriber changed the outcome: %d/%d/%d vs baseline %d/%d/%d",
			rep.Admitted, rep.Rejected, rep.Completed, base.Admitted, base.Rejected, base.Completed)
	}
	if ratio := rep.SustainedQPS / base.SustainedQPS; ratio < 0.6 || ratio > 1.67 {
		t.Errorf("slow subscriber shifted sustained QPS by %.2fx (%.2f vs %.2f)",
			ratio, rep.SustainedQPS, base.SustainedQPS)
	}
	published, dropped := bus.Stats()
	if published == 0 {
		t.Fatal("bus saw no events during an instrumented replay")
	}
	if dropped == 0 || stuck.Dropped() == 0 {
		t.Fatalf("stuck subscriber dropped nothing (bus %d, sub %d) — was the dataplane blocking on it?",
			dropped, stuck.Dropped())
	}
	// Everything that didn't fit its one-slot buffer is accounted for.
	if stuck.Dropped() < published-1 {
		t.Errorf("drop accounting leaks: published %d, sub dropped only %d", published, stuck.Dropped())
	}
	stuck.Close()
}

// TestObsWindowStreamAndSteadyQPS: with WindowEvery set the runtime
// streams tiling Window snapshots onto the bus, and the report's windowed
// SteadyQPS lands near (and is less dilutable than) the span-based rate.
func TestObsWindowStreamAndSteadyQPS(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	every := (float64(n) / plan.Metrics.QPS) / 6.0 // ~6 windows over the replay

	bus := obs.NewBus()
	sub := bus.Subscribe(1 << 15)
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, Bus: bus, WindowEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()

	var windows []Window
	lastN := 0
	for ev := range sub.Events() {
		if ev.Kind != obs.KindWindow {
			continue
		}
		w, ok := ev.Payload.(Window)
		if !ok {
			t.Fatalf("window event payload is %T, not serve.Window", ev.Payload)
		}
		if ev.N <= lastN {
			t.Fatalf("window sequence numbers not increasing: %d after %d", ev.N, lastN)
		}
		lastN = ev.N
		windows = append(windows, w)
	}
	if len(windows) < 2 {
		t.Fatalf("streamed %d window snapshots, want >= 2 (every %.2fs over the run)", len(windows), every)
	}
	var streamed int
	for _, w := range windows {
		streamed += w.Completions
	}
	if streamed == 0 {
		t.Fatal("no completions landed in any streamed window")
	}

	if rep.SteadyQPS <= 0 {
		t.Fatalf("SteadyQPS %g after %d completions", rep.SteadyQPS, rep.Completed)
	}
	if rep.SteadyQPS < 0.5*rep.SustainedQPS || rep.SteadyQPS > 3*rep.SustainedQPS {
		t.Errorf("SteadyQPS %.2f implausible against sustained %.2f", rep.SteadyQPS, rep.SustainedQPS)
	}
}

// TestObsSimSteadyQPS: the simulator's report carries the same windowed
// rate, and it agrees with the live runtime's within the usual tower
// tolerance.
func TestObsSimSteadyQPS(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyQPS <= 0 {
		t.Fatalf("sim SteadyQPS %g after %d completions", res.SteadyQPS, res.Completed)
	}
	if res.SteadyQPS < 0.5*res.QPS || res.SteadyQPS > 3*res.QPS {
		t.Errorf("sim SteadyQPS %.2f implausible against span QPS %.2f", res.SteadyQPS, res.QPS)
	}
}
