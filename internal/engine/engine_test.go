package engine

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
)

func mustCompile(t *testing.T, schema ragschema.Schema, sched Schedule) (*Plan, *stageperf.Profiler, pipeline.Pipeline) {
	t.Helper()
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	plan, err := Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	return plan, prof, pipe
}

func caseIVSchedule() Schedule {
	return Schedule{
		Groups: []GroupSchedule{
			{Stages: []int{0, 1}, Chips: 4, Batch: 4},  // rewrite prefix+decode
			{Stages: []int{3, 4}, Chips: 16, Batch: 4}, // rerank + prefix
		},
		RetrievalServers: 16,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
}

// TestCompileGoldenCaseIV is the golden equivalence check: the compiled
// plan's per-stage steps must reproduce the pre-refactor construction —
// a direct profiler evaluation per (stage, chips, batch, replicas) — and
// the assembled metrics must equal the hand-composed latency/occupancy
// chain the analytical assembler used to build privately.
func TestCompileGoldenCaseIV(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	sched := caseIVSchedule()
	plan, prof, pipe := mustCompile(t, schema, sched)

	if len(plan.Steps) != len(pipe.Stages) {
		t.Fatalf("plan has %d steps for %d stages", len(plan.Steps), len(pipe.Stages))
	}
	// Golden per-stage steps: XPU group members.
	var wantTTFT float64
	qps := math.Inf(1)
	for gi, g := range sched.Groups {
		var occ float64
		for i, idx := range g.Stages {
			pt := prof.EvalR(pipe.Stages[idx], g.Chips, g.Batch, g.ReplicasFor(i))
			if !pt.OK {
				t.Fatalf("reference evaluation infeasible for stage %d", idx)
			}
			st := plan.Steps[idx]
			if st.Latency != pt.Latency || st.QPS != pt.QPS {
				t.Errorf("stage %d step (lat %v qps %v) != profiler (%v %v)", idx, st.Latency, st.QPS, pt.Latency, pt.QPS)
			}
			if st.Resource != gi || st.Batch != g.Batch || st.Chips != g.Chips {
				t.Errorf("stage %d step routing = %+v, want group %d batch %d chips %d", idx, st, gi, g.Batch, g.Chips)
			}
			wantTTFT += pt.Latency
			occ += 1 / pt.QPS
		}
		if got := plan.Resources[gi].Occupancy; math.Abs(got-occ) > 1e-15 {
			t.Errorf("group %d occupancy %v, want %v", gi, got, occ)
		}
		qps = math.Min(qps, 1/occ)
	}
	// Retrieval tier.
	retrIdx := pipe.Index(pipeline.KindRetrieval)
	rt := prof.Eval(pipe.Stages[retrIdx], sched.RetrievalServers, sched.RetrievalBatch)
	wantRetr := rt.Latency + prof.RetrievalTransferLatency()
	if st := plan.Steps[retrIdx]; st.Latency != wantRetr {
		t.Errorf("retrieval step latency %v, want %v", st.Latency, wantRetr)
	}
	wantTTFT += wantRetr
	qps = math.Min(qps, rt.QPS)
	// Decode tier.
	decIdx := pipe.Index(pipeline.KindDecode)
	dec := prof.EvalR(pipe.Stages[decIdx], sched.DecodeChips, sched.DecodeBatch, sched.DecodeReplicasOrOne())
	if st := plan.Steps[decIdx]; st.Latency != dec.Latency || st.Resource != DecodeResource {
		t.Errorf("decode step = %+v, want latency %v on the decode tier", plan.Steps[decIdx], dec.Latency)
	}
	qps = math.Min(qps, float64(sched.DecodeBatch)/dec.Latency)

	// Assembled metrics: the linear pipeline's critical path is the plain
	// latency sum, throughput the bottleneck resource.
	if math.Abs(plan.Metrics.TTFT-wantTTFT) > 1e-12 {
		t.Errorf("TTFT %v, want %v", plan.Metrics.TTFT, wantTTFT)
	}
	if math.Abs(plan.Metrics.QPS-qps)/qps > 1e-12 {
		t.Errorf("QPS %v, want %v", plan.Metrics.QPS, qps)
	}
	wantTPOT := dec.Latency / float64(pipe.Stages[decIdx].OutTokens)
	if math.Abs(plan.Metrics.TPOT-wantTPOT) > 1e-15 {
		t.Errorf("TPOT %v, want %v", plan.Metrics.TPOT, wantTPOT)
	}
	if want := qps / float64(sched.ChipsUsed()); math.Abs(plan.Metrics.QPSPerChip-want) > 1e-12 {
		t.Errorf("QPS/chip %v, want %v", plan.Metrics.QPSPerChip, want)
	}
}

// TestEvaluateAllocFree pins the scratch evaluator — the schedule search's
// innermost call — at zero allocations per candidate on the golden Case IV
// schedule, with metrics identical to a fresh Compile.
func TestEvaluateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	schema := ragschema.CaseIV(8e9)
	sched := caseIVSchedule()
	plan, prof, pipe := mustCompile(t, schema, sched)
	ev, err := NewEvaluator(pipe, prof)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := ev.Evaluate(sched); !ok || m != plan.Metrics {
		t.Fatalf("Evaluate = %v, %v; Compile says %v", m, ok, plan.Metrics)
	}
	if n := testing.AllocsPerRun(200, func() { ev.Evaluate(sched) }); n != 0 {
		t.Errorf("Evaluate allocates %.1f times per candidate, want 0", n)
	}
}

// TestEvaluatorStageMemo pins the Evaluator's per-worker stage memo: it
// prices the Case IV stages — the group members, a collocated group's
// retrieval pause, the tuned retrieval tier and decode — into the memo,
// memoized evaluations equal a fresh Compile, and a profiler with NoMemo
// set bypasses the memo entirely, so every evaluation re-runs the models.
func TestEvaluatorStageMemo(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	sched := caseIVSchedule()
	sched.NProbe = 4
	// One pool for every pre-decode XPU stage, waiting out the retrieval
	// round at its own batch, which differs from the tier's.
	spanning := sched
	spanning.Groups = []GroupSchedule{{Stages: []int{0, 1, 3, 4}, Chips: 16, Batch: 8}}
	plan, prof, pipe := mustCompile(t, schema, sched)
	splan, err := Compile(pipe, spanning, prof)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(pipe, prof)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // cold, then from the memo
		if m, ok := ev.Evaluate(sched); !ok || m != plan.Metrics {
			t.Fatalf("Evaluate = %v, %v; Compile says %v", m, ok, plan.Metrics)
		}
		if m, ok := ev.Evaluate(spanning); !ok || m != splan.Metrics {
			t.Fatalf("Evaluate(spanning) = %v, %v; Compile says %v", m, ok, splan.Metrics)
		}
	}
	// Four group stages on 4 or 16 chips, then on 16 chips at batch 8, the
	// pause's retrieval at batch 8, the tier's at batch 4, and decode.
	if n := len(ev.pr.memo); n != 4+4+1+1+1 {
		t.Errorf("memo holds %d stage prices, want 11", n)
	}

	cold := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	cold.NoMemo = true
	nev, err := NewEvaluator(pipe, cold)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := nev.Evaluate(sched); !ok || m != plan.Metrics {
		t.Fatalf("NoMemo Evaluate = %v, %v; Compile says %v", m, ok, plan.Metrics)
	}
	if m, ok := nev.Evaluate(spanning); !ok || m != splan.Metrics {
		t.Fatalf("NoMemo Evaluate(spanning) = %v, %v; Compile says %v", m, ok, splan.Metrics)
	}
	if n := len(nev.pr.memo); n != 0 {
		t.Errorf("a NoMemo profiler's evaluator memoized %d stage prices, want 0", n)
	}

	// A field too wide for the packed key is priced straight through.
	if _, ok := stageKey(0, 1<<13<<8, 1, 1, 1); ok {
		t.Error("stageKey packed a 14-bit nprobe into 13 bits")
	}
	if _, ok := stageKey(0, 0, 1, -1, 1); ok {
		t.Error("stageKey packed a negative batch")
	}
}

// TestValidatePlacementInPlace pins the allocation-free placement check
// against pipeline.Placement.Validate on valid and malformed groupings of
// the Case IV stages (reordered, duplicated, empty, missing, or including
// retrieval or decode): the verdicts agree, and a rejected schedule reports
// Placement.Validate's own error text.
func TestValidatePlacementInPlace(t *testing.T) {
	pipe, err := pipeline.Build(ragschema.CaseIV(8e9))
	if err != nil {
		t.Fatal(err)
	}
	base := caseIVSchedule()
	groupings := [][][]int{
		{{0, 1}, {3, 4}}, {{0}, {1}, {3}, {4}}, {{0, 1, 3, 4}},
		{{0, 1}, {3}}, {{0, 1}, {4, 3}}, {{0, 1}, {3, 4}, {}}, {{0, 1}, {2, 3, 4}},
		{{0, 1}, {3, 4, 5}}, {{1, 0}, {3, 4}}, {}, {{0, 0, 1}, {3, 4}},
	}
	for _, gs := range groupings {
		s := base
		s.Groups = nil
		pl := pipeline.Placement{}
		for _, st := range gs {
			s.Groups = append(s.Groups, GroupSchedule{Stages: st, Chips: 4, Batch: 4})
			pl.Groups = append(pl.Groups, pipeline.Group{Stages: st})
		}
		want := pl.Validate(pipe)
		got := s.Validate(pipe)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("groups %v: Schedule.Validate = %v, Placement.Validate = %v", gs, got, want)
		}
	}
}

// TestGroupMemFitsDeterministicAtBoundary: a group collocating three
// distinct models (rewriter, reranker, generator) whose resident bytes sum
// to exactly the group's usable HBM must give the same answer every call.
// Summing in map order made the verdict flip at this boundary whenever a
// different association order rounded the sum up. Two models cannot expose
// it — a two-term sum is the same in either order — and neither can the
// zoo's integer byte counts, which sum exactly; the fixture serves the
// models at fractional precisions and keeps the replica counts under which
// some summation order differs from the first-appearance one.
func TestGroupMemFitsDeterministicAtBoundary(t *testing.T) {
	schema := ragschema.CaseIV(70e9)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	prof.Sim.P.HBMReserve = 0 // usable == HBMBytes exactly on one chip
	stages := pipe.PreDecodeXPUStages()
	// Model k (first-appearance order) serves at precision fracs[k]; slot
	// maps a stage to its model's k.
	fracs := []float64{0.1, 0.3, 0.7}
	pipe.Stages = slices.Clone(pipe.Stages)
	var names []string
	slot := make([]int, len(stages))
	for i, idx := range stages {
		m := &pipe.Stages[idx].Model
		k := slices.Index(names, m.Name)
		if k < 0 {
			k = len(names)
			names = append(names, m.Name)
		}
		if k >= len(fracs) {
			t.Fatalf("fixture collocates more than %d models", len(fracs))
		}
		m.BytesPerParam = fracs[k]
		slot[i] = k
	}
	if len(names) != 3 {
		t.Fatalf("fixture collocates %d models, want 3", len(names))
	}
	sensitive := 0
	for mask := 0; mask < 1<<(2*len(stages)); mask++ {
		reps := make([]int, len(stages))
		terms := make([]float64, len(names))
		widest := make([]int, len(names))
		for i, idx := range stages {
			reps[i] = 1 << ((mask >> (2 * i)) & 3)
			widest[slot[i]] = max(widest[slot[i]], reps[i])
			terms[slot[i]] = pipe.Stages[idx].Model.ParamBytes()
		}
		for k := range terms {
			terms[k] *= float64(widest[k])
		}
		g := GroupSchedule{Stages: stages, Chips: 1, Batch: 1, Replicas: reps}
		a, b, c := terms[0], terms[1], terms[2]
		need := a + b + c
		if a+c+b == need && b+c+a == need {
			continue // every order agrees: this boundary cannot flip
		}
		sensitive++
		prof.Sim.Chip.HBMBytes = need
		for call := 0; call < 100; call++ {
			if !GroupMemFits(pipe, prof, g) {
				t.Fatalf("replicas %v: call %d says the group does not fit at its exact boundary", reps, call)
			}
		}
	}
	if sensitive == 0 {
		t.Fatal("no replica assignment makes the boundary order-sensitive; the fixture tests nothing")
	}
}

// TestCompileRejectsDecodeFreePipeline: a schedule over a pipeline with no
// decode stage used to index -1 and panic in the executors; the engine
// must return a descriptive error instead.
func TestCompileRejectsDecodeFreePipeline(t *testing.T) {
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Stages = pipe.Stages[:len(pipe.Stages)-1] // chop decode off
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      64,
	}
	_, err = Compile(pipe, sched, prof)
	if err == nil {
		t.Fatal("decode-free pipeline must not compile")
	}
	if !strings.Contains(err.Error(), "decode") {
		t.Errorf("error %q should name the missing decode stage", err)
	}
}

func TestCompileRejectsInfeasible(t *testing.T) {
	schema := ragschema.CaseI(8e9, 1)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	good := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      64,
	}
	bad := good
	bad.DecodeChips = 0
	if _, err := Compile(pipe, bad, prof); err == nil {
		t.Error("invalid schedule must not compile")
	}
	bad = good
	bad.RetrievalServers = 8 // cannot hold the 6.1 TB corpus
	if _, err := Compile(pipe, bad, prof); err == nil {
		t.Error("under-provisioned retrieval tier must not compile")
	}
}

// TestCompileFanOut checks the multi-source stage graph compiles into
// parallel retrieval tiers whose latencies overlap on the TTFT path.
func TestCompileFanOut(t *testing.T) {
	schema := ragschema.CaseV(8e9, 2)
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{2, 3}, Chips: 16, Batch: 4}}, // rerank+prefix
		RetrievalServers: 8,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
	plan, prof, pipe := mustCompile(t, schema, sched)
	if len(plan.RetrievalIdxs) != 2 {
		t.Fatalf("retrieval stages = %v, want 2 sources", plan.RetrievalIdxs)
	}
	nRetrRes := 0
	for _, r := range plan.Resources {
		if r.Retrieval {
			nRetrRes++
		}
	}
	if nRetrRes != 2 {
		t.Errorf("retrieval resources = %d, want one tier per source", nRetrRes)
	}
	// TTFT counts the two parallel retrievals once, not twice: it must
	// equal one retrieval + rerank + prefix.
	rt := prof.Eval(pipe.Stages[0], sched.RetrievalServers, sched.RetrievalBatch)
	rr := prof.Eval(pipe.Stages[2], 16, 4)
	pf := prof.Eval(pipe.Stages[3], 16, 4)
	want := rt.Latency + prof.RetrievalTransferLatency() + rr.Latency + pf.Latency
	if math.Abs(plan.Metrics.TTFT-want) > 1e-12 {
		t.Errorf("fan-out TTFT %v, want %v (parallel retrievals overlap)", plan.Metrics.TTFT, want)
	}
}

// TestPlanConcurrentReuse hammers one compiled plan from many goroutines —
// the sharing pattern of the optimizer workers and the serving runtime.
// Primarily a data-race canary for `go test -race`.
func TestPlanConcurrentReuse(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	sched := caseIVSchedule()
	plan, _, _ := mustCompile(t, schema, sched)
	ref := plan.StepLatency(3, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for idx := range plan.Steps {
					n := 1 + i%plan.Steps[idx].Batch
					if lat := plan.StepLatency(idx, n); lat <= 0 {
						t.Errorf("stage %d latency at batch %d = %v", idx, n, lat)
						return
					}
				}
				if got := plan.StepLatency(3, 2); got != ref {
					t.Errorf("concurrent StepLatency drifted: %v != %v", got, ref)
					return
				}
				if !plan.Metrics.Valid() {
					t.Error("metrics invalid under concurrent reads")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestScheduleDescribeFanOut(t *testing.T) {
	schema := ragschema.CaseV(8e9, 2)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{2, 3}, Chips: 16, Batch: 4}},
		RetrievalServers: 8,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
	}
	if err := sched.Validate(pipe); err != nil {
		t.Fatal(err)
	}
	desc := sched.Describe(pipe)
	if !strings.Contains(desc, "x2 sources") {
		t.Errorf("Describe = %q, should mention the source fan-out", desc)
	}
}

// TestRetrievalPauseParallelSources: a group spanning a multi-source
// fan-out waits for the retrieval round once — the sources run on
// independent tiers in parallel — so the pause is the longest branch,
// not the sum over sources.
func TestRetrievalPauseParallelSources(t *testing.T) {
	schema := ragschema.CaseV(8e9, 2)
	schema.QueryRewriterParams = 8e9 // upstream XPU stages so a group can span the fan-out
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	// Baseline-style group: every pre-decode XPU stage on one pool,
	// spanning both retrieval sources.
	spanning := pipe.PreDecodeXPUStages()
	const servers, batch = 8, 4
	pause, ok := RetrievalPause(&pipe, prof, spanning, servers, batch, 0, 0)
	if !ok {
		t.Fatal("pause infeasible")
	}
	rt := prof.Eval(pipe.Stages[pipe.Index(pipeline.KindRetrieval)], servers, batch)
	want := rt.Latency / batch
	if math.Abs(pause-want) > 1e-15 {
		t.Errorf("fan-out pause = %v, want one parallel round %v (not the %v sum)", pause, want, 2*want)
	}
	// A group strictly downstream of the fan-out pauses not at all.
	post := []int{pipe.Index(pipeline.KindRerank), pipe.Index(pipeline.KindPrefix)}
	if pause, ok := RetrievalPause(&pipe, prof, post, servers, batch, 0, 0); !ok || pause != 0 {
		t.Errorf("downstream group pause = %v, want 0", pause)
	}
}
