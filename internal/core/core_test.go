package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
)

func newOpt(t *testing.T, s ragschema.Schema, cluster hw.Cluster, norm int) *Optimizer {
	t.Helper()
	opts := DefaultOptions(cluster)
	opts.NormalizeChips = norm
	o, err := NewOptimizer(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// compiledMetrics compiles s with o and reads the plan's metrics,
// normalized by o's QPS/chip denominator as the search normalizes them.
func compiledMetrics(o *Optimizer, s Schedule) (perf.Metrics, bool) {
	plan, err := o.Compile(s)
	if err != nil {
		return perf.Metrics{}, false
	}
	m := plan.Metrics
	if n := o.opts.NormalizeChips; n > 0 {
		m.QPSPerChip = m.QPS / float64(n)
	}
	return m, true
}

func caseISchedule() Schedule {
	return Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 4}},
		RetrievalServers: 16,
		RetrievalBatch:   16,
		DecodeChips:      16,
		DecodeBatch:      256,
		DecodeReplicas:   4,
	}
}

func TestScheduleValidateAndDescribe(t *testing.T) {
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 0)
	s := caseISchedule()
	if err := s.Validate(o.Pipe); err != nil {
		t.Fatal(err)
	}
	if s.ChipsUsed() != 32 {
		t.Errorf("ChipsUsed = %d, want 32", s.ChipsUsed())
	}
	desc := s.Describe(o.Pipe)
	for _, want := range []string{"prefix", "retrieval servers=16", "decode chips=16 batch=256 x4"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe = %q, missing %q", desc, want)
		}
	}

	bad := s
	bad.DecodeBatch = 0
	if err := bad.Validate(o.Pipe); err == nil {
		t.Errorf("zero decode batch should fail")
	}
	bad = s
	bad.RetrievalServers = 0
	if err := bad.Validate(o.Pipe); err == nil {
		t.Errorf("missing retrieval servers should fail")
	}
	bad = s
	bad.DecodeReplicas = 3
	if err := bad.Validate(o.Pipe); err == nil {
		t.Errorf("non-dividing decode replicas should fail")
	}
	bad = s
	bad.Groups = []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 4, Replicas: []int{1, 2}}}
	if err := bad.Validate(o.Pipe); err == nil {
		t.Errorf("replicas/stages mismatch should fail")
	}
}

func TestEvaluateKnownSchedule(t *testing.T) {
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64)
	m, ok := compiledMetrics(o, caseISchedule())
	if !ok {
		t.Fatal("schedule should be feasible")
	}
	// TTFT includes prefix (~tens of ms at batch 4) plus retrieval
	// (~21ms) — expect 30-120 ms.
	if m.TTFT < 0.030 || m.TTFT > 0.120 {
		t.Errorf("TTFT = %v, want 30-120ms", m.TTFT)
	}
	// Retrieval saturates near 950 QPS at most; QPS cannot exceed it.
	if m.QPS > 960 {
		t.Errorf("QPS = %v exceeds the retrieval tier's saturation", m.QPS)
	}
	if m.TPOT <= 0 || m.TPOT > 0.1 {
		t.Errorf("TPOT = %v out of range", m.TPOT)
	}
}

func TestEvaluateRejectsInfeasible(t *testing.T) {
	o := newOpt(t, ragschema.CaseI(405e9, 1), hw.DefaultCluster(), 0)
	s := caseISchedule()
	s.Groups[0].Chips = 1 // 405B prefix cannot fit one chip
	if _, ok := compiledMetrics(o, s); ok {
		t.Errorf("405B prefix on one chip should be infeasible")
	}
	// 8 retrieval servers cannot hold the 6.1 TB corpus.
	o8 := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 0)
	s = caseISchedule()
	s.RetrievalServers = 8
	if _, ok := compiledMetrics(o8, s); ok {
		t.Errorf("8-server retrieval should be infeasible")
	}
}

func TestGroupMemoryCheck(t *testing.T) {
	// Collocating the 70B prefix with the 8B rewriter on one chip needs
	// 78.6 GB resident; one 96 GB chip (86.4 usable) fits, but the 405B
	// prefix plus rewriter on 4 chips (345 GB usable) does not.
	o := newOpt(t, ragschema.CaseIV(405e9), hw.LargeCluster(), 0)
	pre := o.Pipe.PreDecodeXPUStages()
	g := GroupSchedule{Stages: pre, Chips: 4, Batch: 1}
	if engine.GroupMemFits(o.Pipe, o.Prof, g) {
		t.Errorf("405B + 8B rewriter on 4 chips should not fit")
	}
	g.Chips = 8
	if !engine.GroupMemFits(o.Pipe, o.Prof, g) {
		t.Errorf("405B + 8B rewriter on 8 chips should fit")
	}
}

func TestPlansRespectBudgetAndMinima(t *testing.T) {
	o := newOpt(t, ragschema.CaseII(70e9, 1_000_000), hw.DefaultCluster(), 0)
	plans := o.Plans()
	if len(plans) == 0 {
		t.Fatal("no plans enumerated")
	}
	budget := hw.DefaultCluster().XPUs()
	for _, p := range plans {
		total := p.DecodeChips
		for _, c := range p.GroupChips {
			total += c
		}
		if total > budget {
			t.Fatalf("plan %v exceeds budget %d", p, budget)
		}
		if p.Servers != 1 {
			t.Errorf("long-context retrieval needs exactly 1 server, got %d", p.Servers)
		}
	}
}

func TestOptimizeFrontierProperties(t *testing.T) {
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64)
	front := o.Optimize()
	if len(front) < 3 {
		t.Fatalf("frontier too small: %d", len(front))
	}
	// TestFrontierCompiles compiles every point of this search.
	for i, p := range front {
		for j, q := range front {
			if i != j && p.Metrics.Dominates(q.Metrics) {
				t.Fatalf("frontier point %d dominates %d", i, j)
			}
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	a := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64).Optimize()
	b := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64).Optimize()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic frontier size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Metrics != b[i].Metrics {
			t.Fatalf("non-deterministic frontier at %d: %v vs %v", i, a[i].Metrics, b[i].Metrics)
		}
	}
}

// TestOptimizeConcurrent runs two searches on one optimizer at once. They
// share its memos and each records its SearchStats, so under -race an
// unsynchronised write fails the test; both must return the same frontier.
func TestOptimizeConcurrent(t *testing.T) {
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64)
	var fronts [2][]SchedulePoint
	var wg sync.WaitGroup
	for i := range fronts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fronts[i] = o.Optimize()
		}()
	}
	wg.Wait()
	if len(fronts[0]) == 0 || !reflect.DeepEqual(fronts[0], fronts[1]) {
		t.Errorf("concurrent searches returned %d and %d frontier points", len(fronts[0]), len(fronts[1]))
	}
	if o.SearchStats().Plans == 0 {
		t.Error("no search statistics recorded")
	}
}

// TestOptimizeAfterOptionsChange pins that a changed search is a new
// optimizer with memos of its own. o runs Optimize and PlanFrontier at
// MaxPreBatch 32, filling its group-choice memo, whose key omits the batch
// bounds; o.With(MaxPreBatch 4) shares o's profiler and nothing else, so it
// must return exactly what a fresh optimizer returns. When options could
// change in place, 6,819 of 7,810 Case IV plan frontiers came back stale.
// o's own memos persist, so repeating its calls must return its first
// results.
func TestOptimizeAfterOptionsChange(t *testing.T) {
	o := newOpt(t, ragschema.CaseIV(8e9), hw.DefaultCluster(), 0)
	first := o.Optimize()
	var plans []Plan
	var frontiers [][]SchedulePoint
	for i, p := range o.Plans() {
		if i%16 == 0 {
			plans = append(plans, p)
			frontiers = append(frontiers, o.PlanFrontier(p))
		}
	}

	opts := DefaultOptions(hw.DefaultCluster())
	opts.MaxPreBatch = 4
	changed, err := o.With(opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewOptimizer(ragschema.CaseIV(8e9), opts)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("PlanFrontier", func(t *testing.T) {
		for i, p := range plans {
			if got, want := changed.PlanFrontier(p), fresh.PlanFrontier(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %d (%s) after MaxPreBatch 32 -> 4: %d points, a fresh optimizer's %d",
					16*i, p.Describe(o.Pipe), len(got), len(want))
			}
		}
	})
	t.Run("Optimize", func(t *testing.T) {
		want := fresh.Optimize()
		if len(want) == 0 {
			t.Fatal("fresh frontier is empty")
		}
		if got := changed.Optimize(); !reflect.DeepEqual(got, want) {
			t.Errorf("after MaxPreBatch 32 -> 4 the frontier has %d points, a fresh optimizer's %d", len(got), len(want))
		}
	})
	t.Run("Repeated", func(t *testing.T) {
		if got := o.Optimize(); !reflect.DeepEqual(got, first) {
			t.Errorf("a repeated Optimize returned %d points, the first %d", len(got), len(first))
		}
		for i, p := range plans {
			if got := o.PlanFrontier(p); !reflect.DeepEqual(got, frontiers[i]) {
				t.Fatalf("plan %d: a repeated PlanFrontier returned %d points, the first %d", 16*i, len(got), len(frontiers[i]))
			}
		}
	})
}

func TestCaseIRetrievalBound(t *testing.T) {
	// §5.1: hyperscale retrieval bounds the 8B RAG system; with the
	// 64-chip pool the ceiling is retrieval's ~950 QPS -> ~15 QPS/chip.
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64)
	best, ok := perf.MaxQPSPerChip(o.Optimize())
	if !ok {
		t.Fatal("empty frontier")
	}
	if best.Metrics.QPSPerChip < 10 || best.Metrics.QPSPerChip > 16 {
		t.Errorf("Case I 8B max QPS/chip = %.2f, want ~15 (retrieval bound)", best.Metrics.QPSPerChip)
	}
	// 1B and 8B should tie at the retrieval bound (Fig. 5 takeaway).
	o1 := newOpt(t, ragschema.CaseI(1e9, 1), hw.DefaultCluster(), 64)
	best1, _ := perf.MaxQPSPerChip(o1.Optimize())
	if math.Abs(best1.Metrics.QPSPerChip-best.Metrics.QPSPerChip)/best.Metrics.QPSPerChip > 0.15 {
		t.Errorf("RAG 1B (%.2f) and RAG 8B (%.2f) should both sit at the retrieval bound",
			best1.Metrics.QPSPerChip, best.Metrics.QPSPerChip)
	}
}

func TestRAGBeatsLLMOnly70B(t *testing.T) {
	// Fig. 5: RAG 8B outperforms LLM-only 70B in QPS/chip (paper: 1.5x;
	// our calibration lands higher but the winner must hold).
	rag := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64)
	llm := newOpt(t, ragschema.LLMOnly(70e9), hw.DefaultCluster(), 64)
	ragBest, _ := perf.MaxQPSPerChip(rag.Optimize())
	llmBest, _ := perf.MaxQPSPerChip(llm.Optimize())
	if ragBest.Metrics.QPSPerChip <= llmBest.Metrics.QPSPerChip {
		t.Errorf("RAG 8B (%.2f) should beat LLM-only 70B (%.2f) in QPS/chip",
			ragBest.Metrics.QPSPerChip, llmBest.Metrics.QPSPerChip)
	}
}

func TestRAGOBeatsBaselineCaseII(t *testing.T) {
	// Fig. 15a: RAGO achieves ~1.7x the baseline's max QPS/chip on the
	// long-context workload.
	o := newOpt(t, ragschema.CaseII(70e9, 1_000_000), hw.LargeCluster(), 0)
	ragoBest, ok := perf.MaxQPSPerChip(o.Optimize())
	if !ok {
		t.Fatal("empty RAGO frontier")
	}
	baseBest, ok := perf.MaxQPSPerChip(o.BaselineFrontier())
	if !ok {
		t.Fatal("empty baseline frontier")
	}
	gain := ragoBest.Metrics.QPSPerChip / baseBest.Metrics.QPSPerChip
	if gain < 1.3 || gain > 2.3 {
		t.Errorf("RAGO/baseline gain = %.2fx, want ~1.7x (paper Fig. 15a)", gain)
	}
}

func TestIterativeRetrievalRaisesTPOT(t *testing.T) {
	// §5.3: more retrievals per sequence mean higher worst-case TPOT at
	// the same schedule.
	var prev float64
	for _, freq := range []int{2, 4, 8} {
		o := newOpt(t, ragschema.CaseIII(70e9, freq), hw.DefaultCluster(), 64)
		s := caseISchedule()
		s.Groups[0].Chips = 16
		s.DecodeChips = 16
		s.IterativeBatch = 16
		m, ok := compiledMetrics(o, s)
		if !ok {
			t.Fatalf("freq %d: schedule infeasible", freq)
		}
		if m.TPOT <= prev {
			t.Errorf("TPOT at freq %d (%v) not above freq-lower (%v)", freq, m.TPOT, prev)
		}
		prev = m.TPOT
	}
}

func TestIterativeStallModel(t *testing.T) {
	o := newOpt(t, ragschema.CaseIII(70e9, 4), hw.DefaultCluster(), 64)
	base := caseISchedule()
	base.IterativeBatch = 4
	ic, ok := engine.IterativeCost(o.Pipe, o.Prof, base)
	if !ok {
		t.Fatal("iterative cost infeasible")
	}
	if ic.StallPerRequest <= 0 {
		t.Errorf("iterative stall = %v, want positive", ic.StallPerRequest)
	}
	if ic.RetrievalOccupancy <= 0 || ic.PrefixOccupancy <= 0 {
		t.Errorf("iterative occupancies must be positive: %+v", ic)
	}
	// Fig. 9b, small decode batch: growing the iterative batch toward
	// the decode batch inflates the stall (batch-formation wait).
	small := base
	small.DecodeBatch = 16
	small.IterativeBatch = 1
	icSmall, ok := engine.IterativeCost(o.Pipe, o.Prof, small)
	if !ok {
		t.Fatal("small iterative cost infeasible")
	}
	small.IterativeBatch = 16
	icBig, ok := engine.IterativeCost(o.Pipe, o.Prof, small)
	if !ok {
		t.Fatal("big iterative cost infeasible")
	}
	if icBig.StallPerRequest <= icSmall.StallPerRequest {
		t.Errorf("stall should grow with iterative batch at small decode batch: %v vs %v",
			icBig.StallPerRequest, icSmall.StallPerRequest)
	}
	// Non-iterative workloads cost nothing.
	o1 := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 64)
	ic0, ok := engine.IterativeCost(o1.Pipe, o1.Prof, caseISchedule())
	if !ok || ic0 != (engine.IterCost{}) {
		t.Errorf("non-iterative cost = %+v, want zero", ic0)
	}
}

func TestBurstMicroBatching(t *testing.T) {
	o := newOpt(t, ragschema.CaseII(70e9, 1_000_000), hw.LargeCluster(), 0)
	plan := Plan{
		Placement:   o.Pipe.FullyDisaggregated(),
		GroupChips:  []int{32, 8},
		DecodeChips: 8,
		Servers:     1,
	}
	whole, err := o.BurstTTFT(plan, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	split, err := o.BurstTTFT(plan, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if split >= whole {
		t.Errorf("micro-batching should cut burst TTFT: %v vs %v", split, whole)
	}
	red, err := o.BurstTTFTReduction(plan, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 19b: double-digit percentage reductions for Case II.
	if red < 10 || red >= 100 {
		t.Errorf("Case II micro-batch reduction = %.1f%%, want 10-100%%", red)
	}
	if _, err := o.BurstTTFT(plan, 0, 2); err == nil {
		t.Errorf("zero burst should error")
	}
}

func TestBaselinePlacementShape(t *testing.T) {
	o := newOpt(t, ragschema.CaseIV(70e9), hw.DefaultCluster(), 0)
	front := o.BaselineFrontier()
	if len(front) == 0 {
		t.Fatal("empty baseline frontier")
	}
	for _, p := range front {
		if len(p.Item.Groups) != 1 {
			t.Fatalf("baseline must collocate all pre-decode stages in one group")
		}
		if p.Item.Groups[0].Chips != p.Item.DecodeChips {
			t.Fatalf("baseline must split chips 1:1, got %d vs %d",
				p.Item.Groups[0].Chips, p.Item.DecodeChips)
		}
	}
}

func TestPlanDescribe(t *testing.T) {
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 0)
	plan := Plan{Placement: o.Pipe.FullyDisaggregated(), GroupChips: []int{16}, DecodeChips: 16, Servers: 16}
	d := plan.Describe(o.Pipe)
	if !strings.Contains(d, "prefix") || !strings.Contains(d, "servers=16") {
		t.Errorf("Plan.Describe = %q", d)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewOptimizer(ragschema.CaseI(8e9, 1), Options{}); err == nil {
		t.Errorf("zero options should fail")
	}
	opts := DefaultOptions(hw.DefaultCluster())
	opts.MaxPreBatch = 0
	if _, err := NewOptimizer(ragschema.CaseI(8e9, 1), opts); err == nil {
		t.Errorf("zero batch bound should fail")
	}
	bad := ragschema.CaseI(8e9, 1)
	bad.GenerativeParams = 0
	if _, err := NewOptimizer(bad, DefaultOptions(hw.DefaultCluster())); err == nil {
		t.Errorf("invalid schema should fail")
	}
	o := newOpt(t, ragschema.CaseI(8e9, 1), hw.DefaultCluster(), 0)
	if _, err := o.With(opts); err == nil {
		t.Errorf("With should validate like NewOptimizer")
	}
	other := DefaultOptions(hw.DefaultCluster())
	other.Cluster.Chip.HBMBytes *= 2
	if _, err := o.With(other); err == nil {
		t.Errorf("With should refuse a chip its profiler does not price")
	}

	// The search compiles none of the schedules it stamps, so every option
	// it stamps onto them is checked up front.
	caseIV := newOpt(t, ragschema.CaseIV(8e9), hw.DefaultCluster(), 0)
	full := caseIV.Pipe.FullyDisaggregated()
	for _, tc := range []struct {
		name string
		set  func(*Options)
	}{
		{"placement missing stages", func(o *Options) {
			o.Placements = []pipeline.Placement{{Groups: full.Groups[1:]}}
		}},
		{"placement with an empty group", func(o *Options) {
			o.Placements = []pipeline.Placement{{Groups: append([]pipeline.Group{{}}, full.Groups...)}}
		}},
		{"unknown policy", func(o *Options) { o.Policies = []engine.BatchPolicy{engine.PolicySorted + 1} }},
		{"negative chunk quantum", func(o *Options) { o.ChunkQuanta = []int{0, -256} }},
		{"negative nprobe", func(o *Options) { o.NProbes = []int{-1} }},
		{"negative shard fanout", func(o *Options) { o.ShardFanouts = []int{2, -2} }},
	} {
		opts := DefaultOptions(hw.DefaultCluster())
		tc.set(&opts)
		if _, err := NewOptimizer(ragschema.CaseIV(8e9), opts); err == nil {
			t.Errorf("%s: NewOptimizer accepted it", tc.name)
		} else if _, err := caseIV.With(opts); err == nil {
			t.Errorf("%s: With accepted it", tc.name)
		}
	}
}
