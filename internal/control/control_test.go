package control

import (
	"math"
	"reflect"
	"testing"

	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/obs"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/serve"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// caseIVLadder compiles a small/mid/large capacity ladder of Case IV
// schedules (~30 / ~58 / ~119 QPS at 20 / 36 / 72 chips).
func caseIVLadder(t testing.TB) *Library {
	t.Helper()
	schema := ragschema.CaseIV(8e9)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	mk := func(gc1, gc2, b, dc, db, dr, rb int) core.Schedule {
		return core.Schedule{
			Groups: []core.GroupSchedule{
				{Stages: []int{0, 1}, Chips: gc1, Batch: b},
				{Stages: []int{3, 4}, Chips: gc2, Batch: b},
			},
			RetrievalServers: 16, RetrievalBatch: rb,
			DecodeChips: dc, DecodeBatch: db, DecodeReplicas: dr,
		}
	}
	var plans []*engine.Plan
	for _, s := range []core.Schedule{
		mk(4, 8, 4, 8, 16, 2, 4),    // ~30 QPS, 20 chips
		mk(4, 16, 4, 16, 64, 4, 4),  // ~58 QPS, 36 chips
		mk(8, 32, 8, 32, 128, 8, 8), // ~119 QPS, 72 chips
	} {
		plan, err := engine.Compile(pipe, s, prof)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	lib, err := NewLibraryFromPlans(plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Entries) != 3 {
		t.Fatalf("ladder pruned to %d entries, want 3", len(lib.Entries))
	}
	return lib
}

func TestLibraryStaircaseAndIndexFor(t *testing.T) {
	lib := caseIVLadder(t)
	for i := 1; i < len(lib.Entries); i++ {
		if lib.Entries[i].QPS <= lib.Entries[i-1].QPS || lib.Entries[i].Chips <= lib.Entries[i-1].Chips {
			t.Fatalf("entries not a strict cost/capacity staircase: %+v", lib.Entries)
		}
	}
	if got := lib.IndexFor(1); got != 0 {
		t.Errorf("tiny target should pick the cheapest entry, got %d", got)
	}
	mid := lib.Entries[1].QPS
	if got := lib.IndexFor(mid - 1); got != 1 {
		t.Errorf("target under mid capacity should pick entry 1, got %d", got)
	}
	if got := lib.IndexFor(1e9); got != len(lib.Entries)-1 {
		t.Errorf("unreachable target should pick the most capable entry, got %d", got)
	}
	// Duplicated plans (same cost, same QPS) must prune away.
	dup := append([]*engine.Plan{}, lib.Entries[0].Plan, lib.Entries[0].Plan, lib.Entries[2].Plan)
	pruned, err := NewLibraryFromPlans(dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Entries) != 2 {
		t.Errorf("duplicate plans should prune, got %d entries", len(pruned.Entries))
	}
	if _, err := NewLibraryFromPlans(nil); err == nil {
		t.Error("empty library should error")
	}
}

// TestNewLibraryFromFrontier runs a bounded optimizer search and checks
// the SLO filter and compilation path.
func TestNewLibraryFromFrontier(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	cluster := hw.Cluster{Chip: hw.XPUC, Host: hw.EPYCHost, Hosts: 16}
	opts := core.DefaultOptions(cluster)
	opts.MaxPreBatch = 8
	opts.MaxRetrievalBatch = 32
	opts.MaxDecodeBatch = 256
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	front := o.Optimize()
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	slo := SLO{TTFT: 0.5}
	lib, err := NewLibrary(o, front, slo)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range lib.Entries {
		if e.TTFT > slo.TTFT {
			t.Errorf("entry %d violates the TTFT SLO analytically: %+v", i, e)
		}
		if e.Plan == nil || e.QPS <= 0 || e.Chips <= 0 {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
	}
	if _, err := NewLibrary(o, front, SLO{TTFT: 1e-9}); err == nil {
		t.Error("unsatisfiable SLO should error")
	}
}

// unpaced is a speedup at which no sleep ever fires: the run is the
// simulation of its controlled plan epochs.
const unpaced = 1e9

// diurnal is the acceptance scenario: a deterministic diurnal trace with a
// 1 s p99 TTFT objective, and the controller configuration tracking it.
func diurnal(t *testing.T) ([]trace.Request, Config) {
	t.Helper()
	const (
		base      = 45.0 // mean arrival rate (requests/s)
		amplitude = 0.8
		period    = 150.0 // virtual seconds per diurnal cycle
		cycles    = 2.5
	)
	reqs, err := trace.Diurnal(int(base*period*cycles), base, amplitude, period, 17)
	if err != nil {
		t.Fatal(err)
	}
	return reqs, Config{SLO: SLO{TTFT: 1}, Window: 12, Interval: 4, Headroom: 1.3, HoldDown: 12}
}

// streamBuf buffers a whole controlled run's obs stream over n requests.
func streamBuf(n int) int { return 24 * n }

// TestControllerDiurnalHoldsSLO is the acceptance test: on a
// deterministic diurnal trace the controller must hold p99 TTFT inside
// the SLO, spend measurably fewer chip-seconds than static peak
// provisioning, switch plans in both directions without dropping or
// double-serving a single request, and equal the discrete-event replay of
// its own switching decisions exactly.
func TestControllerDiurnalHoldsSLO(t *testing.T) {
	lib := caseIVLadder(t)
	reqs, cfg := diurnal(t)
	n, sloTTFT := len(reqs), cfg.SLO.TTFT
	ctl, err := NewController(lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus, stream := recordStream(t, streamBuf(n))
	res, err := ctl.Run(serve.Options{Speedup: unpaced, Bus: bus}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	live := stream()

	// Drain-and-migrate correctness: every request served exactly once.
	if rep.Completed != n || rep.Rejected != 0 {
		t.Fatalf("completed %d rejected %d of %d: switches dropped or double-served requests", rep.Completed, rep.Rejected, n)
	}
	var admitted int64
	for _, e := range rep.Epochs {
		admitted += e.Admitted
	}
	if admitted != int64(n) {
		t.Fatalf("epoch admissions sum to %d, want %d", admitted, n)
	}

	// The controller must actually track the wave: up- and down-switches.
	up, down := 0, 0
	for _, e := range res.Events {
		if e.To > e.From {
			up++
		} else {
			down++
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("controller never tracked the diurnal wave: %d up, %d down switches (%+v)", up, down, res.Events)
	}

	// SLO held: run-wide p99 TTFT inside the objective.
	if rep.TTFT.P99 > sloTTFT {
		t.Errorf("p99 TTFT %.3fs exceeds the %.1fs SLO", rep.TTFT.P99, sloTTFT)
	}

	// Cheaper than static peak provisioning, by a measurable margin.
	if res.ChipSeconds >= res.StaticChipSeconds {
		t.Errorf("controller spent %.0f chip-seconds, static peak %.0f — no saving", res.ChipSeconds, res.StaticChipSeconds)
	}
	if res.Saved < 0.10 {
		t.Errorf("chip-seconds saving %.1f%% not measurable (want >= 10%%)", 100*res.Saved)
	}

	// The sim replay of the same switching decisions is the same run.
	replayExactly(t, lib, res, reqs, 0, live)
	if math.IsNaN(res.Saved) {
		t.Errorf("accounting produced NaN: %+v", res)
	}
}

// TestControllerPacingChangesNothing: the controller decides in the run's
// own loop, so a paced controlled run is the unpaced one plus sleeping: the
// same switches at the same instants on the same telemetry, the same epochs,
// and the same obs stream, the decisions, switches and streamed windows
// included. Each run gets a fresh library, since Run reweights it in place.
func TestControllerPacingChangesNothing(t *testing.T) {
	reqs, cfg := diurnal(t)
	run := func(speedup float64) (*Result, []streamEvent) {
		t.Helper()
		ctl, err := NewController(caseIVLadder(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		bus, stream := recordStream(t, streamBuf(len(reqs)))
		res, err := ctl.Run(serve.Options{Speedup: speedup, Bus: bus, WindowEvery: 2}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res, stream()
	}
	// Paced: the trace spans about half a wall second.
	paced, pacedStream := run(reqs[len(reqs)-1].Arrival / 0.5)
	free, freeStream := run(unpaced)
	if len(free.Events) == 0 {
		t.Fatal("the controller never switched; pacing has nothing to change")
	}
	type bits struct {
		atV, rate, p99, drain uint64
		from, to              int
		reason                string
	}
	key := func(e Event) bits {
		return bits{math.Float64bits(e.AtV), math.Float64bits(e.Rate), math.Float64bits(e.P99TTFT),
			math.Float64bits(e.DrainSeconds), e.From, e.To, e.Reason}
	}
	if len(paced.Events) != len(free.Events) {
		t.Fatalf("paced run switched %d times, unpaced %d", len(paced.Events), len(free.Events))
	}
	for i := range free.Events {
		if key(paced.Events[i]) != key(free.Events[i]) {
			t.Errorf("switch %d: paced %+v, unpaced %+v", i, paced.Events[i], free.Events[i])
		}
	}
	if !reflect.DeepEqual(paced.Report.Epochs, free.Report.Epochs) {
		t.Errorf("paced epochs %+v, unpaced %+v", paced.Report.Epochs, free.Report.Epochs)
	}
	kinds := map[obs.Kind]bool{}
	for _, ev := range freeStream {
		kinds[ev.kind] = true
	}
	for _, k := range []obs.Kind{obs.KindDecision, obs.KindSwitchBegin, obs.KindSwitchCommit, obs.KindSwitchDrain, obs.KindWindow} {
		if !kinds[k] {
			t.Errorf("the stream carries no %v event", k)
		}
	}
	sameStream(t, "paced vs unpaced obs stream", pacedStream, freeStream)
}

// TestControllerSimReplayWithAdmissionBound: the discrete-event replay
// applies the live run's shed-on-full bound once across all tenures, as
// the Server does, so a controlled run with admission control that
// actually sheds load equals its sim replay exactly — the same requests
// shed, by the same tenures.
func TestControllerSimReplayWithAdmissionBound(t *testing.T) {
	lib := caseIVLadder(t)
	// Load near the mid plan's capacity with a bound below the steady-state
	// in-flight population, so shedding is systematic rather than a startup
	// transient, then a third of it, so the controller switches down.
	rate := 0.9 * lib.Entries[1].QPS
	const dur = 120.0
	const bound = 32
	n := int(rate * dur)
	reqs, err := trace.Poisson(n, rate, 29)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if a := reqs[i].Arrival; a > dur/2 {
			reqs[i].Arrival = dur/2 + 3*(a-dur/2)
		}
	}
	ctl, err := NewController(lib, Config{
		SLO:      SLO{TTFT: 1.0},
		Window:   12,
		Interval: 4,
		Headroom: 1.3,
		HoldDown: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus, stream := recordStream(t, streamBuf(n))
	res, err := ctl.Run(serve.Options{Speedup: unpaced, MaxInFlight: bound, Bus: bus}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	live := stream()
	if rep.Completed+rep.Rejected != n {
		t.Fatalf("completed %d + rejected %d != %d", rep.Completed, rep.Rejected, n)
	}
	if rep.Rejected == 0 {
		t.Fatalf("bound %d against ~%.0f in-flight demand should shed load", bound, rate)
	}

	if len(res.Events) == 0 {
		t.Fatal("the controller never switched; the replay would not cross a tenure boundary")
	}
	replayExactly(t, lib, res, reqs, bound, live)
}

// TestControllerStaticLoad: on a flat trace comfortably inside one plan's
// capacity, whose opening window sizes the right plan, the controller must
// settle instead of hunting: it never switches.
func TestControllerStaticLoad(t *testing.T) {
	lib := caseIVLadder(t)
	rate := 0.6 * lib.Entries[1].QPS
	const dur = 120.0
	n := int(rate * dur)
	reqs, err := trace.Poisson(n, rate, 23)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(lib, Config{
		SLO:      SLO{TTFT: 1.0},
		Window:   12,
		Interval: 4,
		Headroom: 1.3,
		HoldDown: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctl.Run(serve.Options{Speedup: unpaced}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed != n {
		t.Fatalf("completed %d of %d", res.Report.Completed, n)
	}
	if len(res.Events) != 0 {
		t.Errorf("flat load should settle, got %d switches: %+v", len(res.Events), res.Events)
	}
	if res.Report.TTFT.P99 > 1.0 {
		t.Errorf("flat load p99 TTFT %.3fs exceeds the 1.0s SLO", res.Report.TTFT.P99)
	}
}

// TestSimReplayShapePassthrough: per-request prompt/output shapes ride
// through the controller's discrete-event replay untouched — a shaped
// tenure segment simulates exactly like a direct ServeSim run of the same
// shaped requests, so the runtime/sim cross-check stays meaningful on
// heterogeneous traces.
func TestSimReplayShapePassthrough(t *testing.T) {
	lib := caseIVLadder(t)
	entry := lib.Entries[len(lib.Entries)-1]
	base, err := trace.Poisson(1500, 1.2*entry.QPS, 6)
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
	reqs := trace.WithShapes(base, prompt, output, 9)

	// Single tenure on the top entry: the replay must reduce to a direct
	// simulation of the shaped trace on that plan.
	res := &Result{Start: len(lib.Entries) - 1}
	got, err := SimReplay(lib, res, reqs, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewServeFromPlan(entry.Plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != want.Completed || got.QPS != want.QPS {
		t.Errorf("shaped replay diverged from direct sim: %+v vs %+v", got, want)
	}
	if want.PadWaste <= 0 {
		t.Errorf("shaped segment recorded no padding waste; shapes were dropped on the way into the replay")
	}
	// And the shaped mix must genuinely cost throughput vs the same
	// arrivals unshaped, proving the fields were honored, not ignored.
	sPlain, err := sim.NewServeFromPlan(entry.Plan)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sPlain.Run(base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !(want.QPS < plain.QPS) {
		t.Errorf("shaped QPS %.2f should undercut constant-shape %.2f", want.QPS, plain.QPS)
	}
}
