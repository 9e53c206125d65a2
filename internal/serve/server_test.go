package serve

import (
	"encoding/json"
	"math"
	"strings"
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
	"rago/internal/vectordb"
)

// TestOptionsValidation: negative Speedup and MaxInFlight must be rejected
// with a descriptive error instead of being silently mapped to defaults.
func TestOptionsValidation(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	if _, err := New(pipe, prof, sched, Options{Speedup: -1}); err == nil {
		t.Error("negative Speedup should be rejected")
	}
	if _, err := New(pipe, prof, sched, Options{MaxInFlight: -5}); err == nil {
		t.Error("negative MaxInFlight should be rejected")
	}
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(plan, Options{Speedup: -1}); err == nil {
		t.Error("NewServer should reject negative Speedup")
	}
	if _, err := NewServer(nil, Options{}); err == nil {
		t.Error("NewServer should reject a nil plan")
	}
	if _, err := New(pipe, prof, sched, Options{Sharded: new(vectordb.Sharded)}); err == nil || !strings.Contains(err.Error(), "Sharded") {
		t.Errorf("Sharded without QueryDim should be rejected naming Sharded, got %v", err)
	}
	// Zero remains "default", not an error.
	if _, err := New(pipe, prof, sched, Options{}); err != nil {
		t.Errorf("zero options should be fine: %v", err)
	}
}

// TestQuantilesOfEdgeCases: empty and single-sample distributions.
func TestQuantilesOfEdgeCases(t *testing.T) {
	if q := quantilesOf(nil); q != (Quantiles{}) {
		t.Errorf("empty distribution should be all-zero, got %+v", q)
	}
	q := quantilesOf([]float64{0.25})
	if q.Mean != 0.25 || q.P50 != 0.25 || q.P95 != 0.25 || q.P99 != 0.25 || q.Max != 0.25 {
		t.Errorf("single sample should pin every quantile to it, got %+v", q)
	}
	q = quantilesOf([]float64{3, 1, 2})
	if q.P50 != 2 || q.Max != 3 || q.Mean != 2 {
		t.Errorf("unsorted input mishandled: %+v", q)
	}
}

// TestReportJSON: the full report must marshal as machine-readable JSON
// (the -json CLI flag and CI artifacts depend on it).
func TestReportJSON(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	rt, err := New(pipe, prof, sched, Options{Speedup: 400})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(trace.Burst(50))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Completed != rep.Completed || back.TTFT.P99 != rep.TTFT.P99 {
		t.Errorf("JSON roundtrip lost data: %+v vs %+v", back, rep)
	}
}

// TestRuntimeTelemetry polls the windowed feed mid-replay and checks it
// converges on the cumulative truth.
func TestRuntimeTelemetry(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	want, ok := (&core.Assembler{Pipe: pipe, Prof: prof}).Evaluate(sched)
	if !ok {
		t.Fatal("schedule infeasible analytically")
	}
	const n = 3000
	reqs, err := trace.Poisson(n, want.QPS, 21)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(n) / want.QPS // about a wall second
	rt, err := New(pipe, prof, sched, Options{Speedup: speedup})
	if err != nil {
		t.Fatal(err)
	}
	if w := rt.Telemetry(10); w.Admitted != 0 || w.Now != 0 {
		t.Errorf("pre-Serve telemetry should be zero, got %+v", w)
	}
	done := make(chan struct{})
	var rep *Report
	go func() {
		rep, err = rt.Serve(reqs)
		close(done)
	}()
	sawLoad := false
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		case <-time.After(100 * time.Millisecond):
			w := rt.Telemetry(30)
			if w.Arrivals > 0 && w.Completions > 0 && w.TTFT.P99 > 0 {
				sawLoad = true
				if w.ArrivalRate <= 0 || w.QPS <= 0 || w.Span <= 0 {
					t.Errorf("inconsistent mid-run window: %+v", w)
				}
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sawLoad {
		t.Error("telemetry never observed live load mid-replay")
	}
	if w := rt.Telemetry(1e9); w.Completed != rep.Completed || w.Admitted != rep.Admitted {
		t.Errorf("final cumulative window %+v disagrees with report %d/%d", w, rep.Admitted, rep.Completed)
	}
}

// serverSetup compiles two Case IV plans of different capacity for the
// same pipeline: a small one and the serve_test schedule.
func serverSetup(t testing.TB) (small, large *engine.Plan) {
	t.Helper()
	pipe, prof, sched := caseIVSetup(t)
	smallSched := sched
	smallSched.DecodeChips = 8
	smallSched.DecodeBatch = 16
	smallSched.DecodeReplicas = 2
	var err error
	small, err = engine.Compile(pipe, smallSched, prof)
	if err != nil {
		t.Fatal(err)
	}
	large, err = engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	return small, large
}

// switchAt schedules a Switch of s to plan at virtual time v.
func switchAt(t *testing.T, s *Server, v float64, plan *engine.Plan) {
	s.At(v, func() {
		if err := s.Switch(plan); err != nil {
			t.Errorf("switch at %v: %v", v, err)
		}
	})
}

// startedAt requires each epoch of rep to have started at its scheduled
// instant, bit for bit.
func startedAt(t *testing.T, rep *ServerReport, starts []float64) {
	t.Helper()
	if len(rep.Epochs) != len(starts) {
		t.Fatalf("%d epochs, scheduled %d", len(rep.Epochs), len(starts))
	}
	for i, e := range rep.Epochs {
		if math.Float64bits(e.StartV) != math.Float64bits(starts[i]) {
			t.Errorf("epoch %d started at %v, scheduled at %v", i, e.StartV, starts[i])
		}
	}
}

// TestServerSwitchDrainAndMigrate is the drain-semantics assertion: a
// mid-replay switch must route new admissions to the new plan while every
// in-flight request finishes on the old one — nothing dropped, nothing
// double-served — and the old epoch's workers must shut down after
// draining. Runs under -race in CI.
func TestServerSwitchDrainAndMigrate(t *testing.T) {
	small, large := serverSetup(t)
	const n = 4000
	rate := 1.2 * small.Metrics.QPS
	reqs, err := trace.Poisson(n, rate, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(small, Options{Speedup: unpaced})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Switch(large); err == nil {
		t.Fatal("Switch before Serve should error")
	}
	// Switch up mid-trace, then back down later.
	starts := []float64{0, reqs[n/2].Arrival, reqs[3*n/4].Arrival}
	s.At(starts[1], func() {
		if err := s.Switch(large); err != nil {
			t.Errorf("switch up: %v", err)
		}
		if got := s.Plan(); got != large {
			t.Errorf("current plan not swapped")
		}
	})
	switchAt(t, s, starts[2], small)
	rep, err := s.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	startedAt(t, rep, starts)
	if rep.Completed != n || rep.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want %d/0: drain dropped or double-served", rep.Completed, rep.Rejected, n)
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
		if e.ChipSeconds <= 0 {
			t.Errorf("epoch %d chip-seconds not accounted: %+v", i, e)
		}
	}
	if admitted != int64(n) {
		t.Errorf("epoch admissions sum to %d, want %d (each request on exactly one plan)", admitted, n)
	}
	if rep.DurationV <= 0 || rep.ChipSeconds <= 0 {
		t.Errorf("report accounting empty: %+v", rep)
	}
}

// TestServerRunEndsAtLastEvent: a run ends at its last event, not at the
// wall clock's reading once the driver returned. Unpaced, DurationV is the
// simulator's last completion (this trace's last event) and the one epoch
// holds its chips exactly that long; two paced runs end at the same virtual
// instant, bit for bit.
func TestServerRunEndsAtLastEvent(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Poisson(600, 1.2*plan.Metrics.QPS, 12)
	if err != nil {
		t.Fatal(err)
	}
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	serveAt := func(speedup float64) *ServerReport {
		t.Helper()
		srv, err := NewServer(plan, Options{Speedup: speedup})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	chips := float64(plan.Sched.ChipsUsed())
	rep := serveAt(unpaced)
	if rep.DurationV != res.LastDone || rep.ChipSeconds != chips*rep.DurationV {
		t.Errorf("unpaced run lasted %v virtual seconds for %v chip-seconds; its last event is at %v (%v chip-seconds)",
			rep.DurationV, rep.ChipSeconds, res.LastDone, chips*res.LastDone)
	}
	paced := reqs[len(reqs)-1].Arrival / 0.25
	a, b := serveAt(paced), serveAt(paced)
	if math.Float64bits(a.DurationV) != math.Float64bits(b.DurationV) || a.DurationV != rep.DurationV {
		t.Errorf("paced runs lasted %v and %v virtual seconds, unpaced %v", a.DurationV, b.DurationV, rep.DurationV)
	}
}

// TestServerSwitchRejectsIncompatible: plans of a different pipeline must
// not be hot-swappable.
func TestServerSwitchRejectsIncompatible(t *testing.T) {
	small, _ := serverSetup(t)
	otherSchema := ragschema.CaseI(8e9, 1)
	otherPipe, err := pipeline.Build(otherSchema)
	if err != nil {
		t.Fatal(err)
	}
	otherProf := stageperf.New(hw.XPUC, hw.EPYCHost, otherSchema)
	otherPlan, err := engine.Compile(otherPipe, core.Schedule{
		Groups:           []core.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}, otherProf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(small, Options{Speedup: 500})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Serve(trace.Burst(200))
		close(done)
	}()
	<-s.Started()
	if err := s.Switch(otherPlan); err == nil {
		t.Error("incompatible plan should be rejected")
	}
	if err := s.Switch(nil); err == nil {
		t.Error("nil plan should be rejected")
	}
	if err := s.Switch(small); err != nil {
		t.Errorf("no-op switch to the current plan should succeed: %v", err)
	}
	<-done
	if err := s.Switch(small); err != ErrServeEnded {
		t.Errorf("Switch after the replay drained should return ErrServeEnded, got %v", err)
	}
	if _, err := s.Serve(trace.Burst(10)); err == nil {
		t.Error("second Serve on a single-use server should error")
	}
}

// TestServerSwitchRejectsInexecutablePlan: Switch applies the same
// executability check as NewServer. An iterative plan stripped of its
// round structure executes the same stage graph (CompatibleWith holds),
// so without the check the server would silently serve it as a
// single-retrieval plan.
func TestServerSwitchRejectsInexecutablePlan(t *testing.T) {
	pipe, prof, sched := caseIIISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	broken := *plan
	broken.Round = nil
	if !plan.CompatibleWith(&broken) {
		t.Fatal("stripped plan should still pass CompatibleWith")
	}
	if _, err := NewServer(&broken, Options{}); err == nil {
		t.Error("NewServer should reject a plan without its round structure")
	}
	const n = 400
	reqs, err := trace.Poisson(n, plan.Metrics.QPS, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(plan, Options{Speedup: (float64(n) / plan.Metrics.QPS) / 0.5})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *ServerReport
	go func() {
		rep, err = s.Serve(reqs)
		close(done)
	}()
	<-s.Started()
	switch err := s.Switch(&broken); {
	case err == ErrServeEnded:
		t.Fatal("replay drained before the switch; lengthen the trace")
	case err == nil:
		t.Error("Switch accepted an iterative plan without its round structure")
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches != 0 || rep.Completed != n {
		t.Errorf("rejected switch changed the run: %d switches, %d of %d completed", rep.Switches, rep.Completed, n)
	}
}
