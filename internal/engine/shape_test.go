package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
)

func caseISchedule() Schedule {
	return Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}
}

func TestPadTokens(t *testing.T) {
	cases := map[int]int{0: 64, 1: 64, 64: 64, 65: 128, 512: 512, 513: 576, 4096: 4096}
	for in, want := range cases {
		if got := PadTokens(in); got != want {
			t.Errorf("PadTokens(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestStepLatencyShapedConstantPath: the zero shape — and shapes on
// shape-independent stages — must take the precompiled constant-shape path
// bit for bit. This is the regression guard that keeps shape-less traces
// reproducing their historical results exactly.
func TestStepLatencyShapedConstantPath(t *testing.T) {
	plan, _, pipe := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	for idx := range pipe.Stages {
		b := plan.Steps[idx].Batch
		for _, n := range []int{1, b} {
			if got, want := plan.StepLatencyShaped(idx, n, Shape{}), plan.StepLatency(idx, n); got != want {
				t.Errorf("stage %d n=%d: zero shape latency %v != constant path %v", idx, n, got, want)
			}
		}
	}
	// Retrieval ignores shapes entirely.
	ri := plan.RetrievalIdxs[0]
	if got, want := plan.StepLatencyShaped(ri, 8, Shape{PromptTokens: 4096}), plan.StepLatency(ri, 8); got != want {
		t.Errorf("retrieval shaped latency %v != constant %v", got, want)
	}
	// GenTimeFor(0) and GenTimeFor(schema constant) are both exact.
	dec := plan.Steps[plan.DecodeIdx]
	if got := plan.GenTimeFor(0); got != dec.Latency {
		t.Errorf("GenTimeFor(0) = %v, want precompiled %v", got, dec.Latency)
	}
	if got := plan.GenTimeFor(dec.Stage.OutTokens); got != dec.Latency {
		t.Errorf("GenTimeFor(schema %d) = %v, want %v exactly", dec.Stage.OutTokens, got, dec.Latency)
	}
}

// TestStepLatencyShapedMonotone: longer padded prompts must cost the
// prefix strictly more, and a shaped full batch must agree with a direct
// profiler evaluation of the reshaped stage.
func TestStepLatencyShapedMonotone(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	pi := plan.PrefixIdx
	b := plan.Steps[pi].Batch
	short := plan.StepLatencyShaped(pi, b, Shape{PromptTokens: 256})
	base := plan.StepLatencyShaped(pi, b, Shape{PromptTokens: 512})
	long := plan.StepLatencyShaped(pi, b, Shape{PromptTokens: 2048})
	if !(short < base && base < long) {
		t.Errorf("prefix latency not monotone in prompt: 256->%v 512->%v 2048->%v", short, base, long)
	}
	// The schema constant (512, already on the pad grid) shaped through
	// the profiler must equal the precompiled full-batch latency.
	if got, want := base, plan.Steps[pi].Latency; math.Abs(got-want) > 1e-12*want {
		t.Errorf("shaped-at-constant latency %v != precompiled %v", got, want)
	}
	// Half a batch of long prompts still costs less than a full one.
	if half := plan.StepLatencyShaped(pi, b/2, Shape{PromptTokens: 2048}); half >= long {
		t.Errorf("partial shaped batch %v should undercut full %v", half, long)
	}
}

func TestPrefixBatchShape(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	// All-unshaped batches carry no shape and no padding accounting.
	if sh, tok := plan.PrefixBatchShape([]int{0, 0, 0}); sh != (Shape{}) || tok != 0 {
		t.Errorf("unshaped batch => %+v/%d, want zero", sh, tok)
	}
	// Mixed batch: the padded max governs; unshaped members count at the
	// schema constant (512).
	sh, tok := plan.PrefixBatchShape([]int{100, 0, 1000})
	if sh.PromptTokens != PadTokens(1000) {
		t.Errorf("padded max = %d, want %d", sh.PromptTokens, PadTokens(1000))
	}
	if tok != 100+512+1000 {
		t.Errorf("token sum = %d, want %d", tok, 100+512+1000)
	}
	waste := 1 - float64(tok)/float64(3*sh.PromptTokens)
	if waste <= 0 || waste >= 1 {
		t.Errorf("padding waste %v out of (0,1)", waste)
	}
}

// TestShapeMetrics: the shape-weighted analytical estimate must degrade
// QPS and inflate TTFT for a heavy-tailed mix relative to the constant
// prediction, shrink both for a uniformly short mix, and reduce to the
// compiled Metrics exactly when every request is unshaped.
func TestShapeMetrics(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())

	unshaped := make([]Shape, 500)
	if got := plan.ShapeMetrics(unshaped); got != plan.Metrics {
		t.Errorf("all-unshaped ShapeMetrics %+v != compiled Metrics %+v", got, plan.Metrics)
	}
	if got := plan.ShapeMetrics(nil); got != plan.Metrics {
		t.Errorf("empty ShapeMetrics %+v != compiled Metrics %+v", got, plan.Metrics)
	}

	heavy := make([]Shape, 500)
	for i := range heavy {
		heavy[i] = Shape{PromptTokens: 512, OutputTokens: 256}
		if i%4 == 0 {
			heavy[i] = Shape{PromptTokens: 3072, OutputTokens: 768}
		}
	}
	hm := plan.ShapeMetrics(heavy)
	if !(hm.QPS < plan.Metrics.QPS) {
		t.Errorf("heavy-tailed QPS %v should undercut constant %v", hm.QPS, plan.Metrics.QPS)
	}
	if !(hm.TTFT > plan.Metrics.TTFT) {
		t.Errorf("heavy-tailed TTFT %v should exceed constant %v", hm.TTFT, plan.Metrics.TTFT)
	}
	if !hm.Valid() {
		t.Errorf("shape metrics unphysical: %+v", hm)
	}

	short := make([]Shape, 500)
	for i := range short {
		short[i] = Shape{PromptTokens: 128, OutputTokens: 64}
	}
	sm := plan.ShapeMetrics(short)
	if !(sm.QPS > plan.Metrics.QPS) {
		t.Errorf("short-request QPS %v should exceed constant %v", sm.QPS, plan.Metrics.QPS)
	}
	if !(sm.TTFT < plan.Metrics.TTFT) {
		t.Errorf("short-request TTFT %v should undercut constant %v", sm.TTFT, plan.Metrics.TTFT)
	}
}

// TestPadEfficiencyMatchesChunkPrefill: under chunked prefill the analytic
// pad efficiency of a one-batch sample is exactly the token ratio the
// executors' ChunkPrefill pads that batch to — on and off the 64-token
// padding grid.
func TestPadEfficiencyMatchesChunkPrefill(t *testing.T) {
	prompts := []int{90, 20, 700}
	shapes := make([]Shape, len(prompts))
	for i, pt := range prompts {
		shapes[i] = Shape{PromptTokens: pt, OutputTokens: 128}
	}
	for _, q := range []int{32, 100, 256} {
		sched := caseISchedule()
		sched.ChunkQuantum = q
		plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), sched)
		_, _, tok, pad := plan.ChunkPrefill(prompts, nil)
		if got, want := plan.PadEfficiency(shapes), float64(tok)/float64(pad); got != want {
			t.Errorf("q=%d: PadEfficiency %v, ChunkPrefill pads to %d/%d = %v", q, got, tok, pad, want)
		}
	}
}

// TestEvaluateShapedMemo drives one Evaluator per pipeline through an
// interleaved sequence of schedules that moves every field the memoized
// terms are keyed on — policy, chunk quantum, nprobe, fanout, prefix
// batch, decode batch and replicas, and (on the iterative Case III
// pipeline) the per-request stall — and requires every result to equal a
// freshly compiled plan's cold ShapeMetrics bit for bit. A sample mutated
// in place, and an equal-content copy of it, must both price fresh.
func TestEvaluateShapedMemo(t *testing.T) {
	shapes := make([]Shape, 96)
	for i := range shapes {
		shapes[i] = Shape{PromptTokens: 150 + (i*53)%700, OutputTokens: 64 + (i*29)%400}
		if i%9 == 0 {
			shapes[i] = Shape{PromptTokens: 1800 + i*20, OutputTokens: 512}
		}
		if i%11 == 0 {
			shapes[i] = Shape{} // schema constant
		}
	}
	same := func(a, b perf.Metrics) bool {
		for _, f := range [][2]float64{{a.TTFT, b.TTFT}, {a.TPOT, b.TPOT}, {a.QPS, b.QPS}, {a.QPSPerChip, b.QPSPerChip}, {a.Recall, b.Recall}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name   string
		schema ragschema.Schema
		iters  []int
	}{
		{"caseI", ragschema.CaseI(8e9, 1), []int{0}},
		{"caseIII", ragschema.CaseIII(8e9, 4), []int{8, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pipe, err := pipeline.Build(tc.schema)
			if err != nil {
				t.Fatal(err)
			}
			prof := stageperf.New(hw.XPUC, hw.EPYCHost, tc.schema)
			prof.Shards = 8
			ev, err := NewEvaluator(pipe, prof)
			if err != nil {
				t.Fatal(err)
			}
			var scheds []Schedule
			for _, pb := range []int{8, 4} {
				for _, dec := range [][2]int{{128, 4}, {64, 2}, {128, 2}} {
					for _, ib := range tc.iters {
						for _, pol := range []BatchPolicy{PolicyFIFO, PolicyBucketed, PolicySorted} {
							for _, q := range []int{0, 256} {
								for _, np := range []int{0, 32} {
									for _, fo := range []int{0, 2} {
										s := caseISchedule()
										s.Groups = []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: pb}}
										s.DecodeBatch, s.DecodeReplicas, s.IterativeBatch = dec[0], dec[1], ib
										s.FormPolicy, s.ChunkQuantum, s.NProbe, s.ShardFanout = pol, q, np, fo
										scheds = append(scheds, s)
									}
								}
							}
						}
					}
				}
			}
			feasible := 0
			check := func(s Schedule, sample []Shape) perf.Metrics {
				t.Helper()
				got, ok := ev.EvaluateShaped(s, sample)
				plan, err := Compile(pipe, s, prof)
				if (err == nil) != ok {
					t.Fatalf("%+v: EvaluateShaped ok=%v but Compile err=%v", s, ok, err)
				}
				if ok {
					feasible++
					if want := plan.ShapeMetrics(sample); !same(got, want) {
						t.Fatalf("%+v: memoized %+v != cold %+v", s, got, want)
					}
				}
				return got
			}
			// Search order first (knobs innermost, as the search stamps
			// them), then a shuffled revisit that lands on every key from
			// a different predecessor.
			order := rand.New(rand.NewSource(1)).Perm(len(scheds))
			for _, s := range scheds {
				check(s, shapes)
			}
			stalls := map[float64]bool{}
			for _, i := range order {
				check(scheds[i], shapes)
				if ev.plan.Round != nil {
					stalls[ev.plan.Iter.StallPerRequest] = true
				}
			}
			if feasible < len(scheds) {
				t.Fatalf("only %d of %d schedule visits feasible", feasible, 2*len(scheds))
			}
			if len(tc.iters) > 1 && len(stalls) < 2 {
				t.Fatalf("iterative schedules never moved the per-request stall (%v)", stalls)
			}

			// The caller's slice mutated in place must not read stale terms,
			// and an equal-content copy must price the same.
			sample := slices.Clone(shapes)
			before := check(scheds[0], sample)
			for i := range sample {
				sample[i].PromptTokens += 300
				sample[i].OutputTokens += 40
			}
			if after := check(scheds[0], sample); same(before, after) {
				t.Fatal("mutating the sample did not move the metrics; the check is vacuous")
			}
			check(scheds[0], slices.Clone(sample))
			check(scheds[0], shapes)
		})
	}
}
