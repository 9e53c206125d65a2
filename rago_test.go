package rago

// End-to-end tests of the public API surface: the facade must expose a
// complete, coherent workflow — schema in, Pareto frontier and schedules
// out — plus the simulators and the vector-search substrate.

import (
	"math"
	"testing"
)

func TestPublicAPIOptimizeWorkflow(t *testing.T) {
	schema := CaseI(8e9, 1)
	opts := DefaultOptions(DefaultCluster())
	opts.NormalizeChips = DefaultCluster().XPUs()

	front, err := Optimize(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 3 {
		t.Fatalf("frontier too small: %d", len(front))
	}
	best, ok := MaxQPSPerChip(front)
	if !ok {
		t.Fatal("no max-QPS point")
	}
	fast, ok := MinTTFT(front)
	if !ok {
		t.Fatal("no min-TTFT point")
	}
	if fast.Metrics.TTFT > best.Metrics.TTFT {
		t.Errorf("min-TTFT point (%v) slower than max-QPS point (%v)", fast.Metrics.TTFT, best.Metrics.TTFT)
	}
	pipe, err := BuildPipeline(schema)
	if err != nil {
		t.Fatal(err)
	}
	if desc := best.Item.Describe(pipe); desc == "" {
		t.Errorf("empty schedule description")
	}
}

func TestPublicAPIBaselineComparison(t *testing.T) {
	schema := CaseII(70e9, 1_000_000)
	opts := DefaultOptions(LargeCluster())
	front, err := Optimize(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := MaxQPSPerChip(front)
	bb, _ := MaxQPSPerChip(base)
	gain := rb.Metrics.QPSPerChip / bb.Metrics.QPSPerChip
	if gain < 1.3 || gain > 2.3 {
		t.Errorf("headline Case II gain = %.2fx, want ~1.7x", gain)
	}
}

func TestPublicAPIServeWorkflow(t *testing.T) {
	// The full loop the serving runtime exists for: optimize, pick a
	// frontier point, replay an overdriving trace through the live
	// engine, and check the measured throughput tracks the point.
	schema := CaseI(8e9, 1)
	cluster := DefaultCluster()
	front, err := Optimize(schema, DefaultOptions(cluster))
	if err != nil {
		t.Fatal(err)
	}
	best, ok := MaxQPSPerChip(front)
	if !ok {
		t.Fatal("no max-QPS point")
	}
	plan, err := CompilePlan(schema, best.Item, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewServer(plan, ServeOptions{Speedup: 1500})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := PoissonTrace(1500, 1.5*best.Metrics.QPS, 17)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1500 {
		t.Fatalf("completed %d of 1500", rep.Completed)
	}
	if ratio := rep.SustainedQPS / best.Metrics.QPS; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("served QPS %.2f vs frontier point %.2f (ratio %.2f)", rep.SustainedQPS, best.Metrics.QPS, ratio)
	}
	if rep.TTFT.P99 < rep.TTFT.P50 || rep.TTFT.P50 <= 0 {
		t.Errorf("TTFT quantiles implausible: %+v", rep.TTFT)
	}
}

func TestPublicAPISchemaJSON(t *testing.T) {
	orig := CaseIV(70e9)
	data, err := EncodeSchemaJSON(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSchemaJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("JSON round trip mismatch")
	}
}

func TestPublicAPIIterativeSim(t *testing.T) {
	res, err := RunIterative(IterativeConfig{
		DecodeBatch:      64,
		IterBatch:        64,
		DecodeTokens:     256,
		RetrievalsPerSeq: 3,
		StepTime:         0.01,
		Sequences:        200,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalizedLatency < 1.8 || res.NormalizedLatency > 3.8 {
		t.Errorf("64/64 idleness = %.2f, want ~2.8 (paper 2.77)", res.NormalizedLatency)
	}
}

func TestPublicAPIVectorSearch(t *testing.T) {
	data := GenClustered(2000, 16, 8, 0.5, 1)
	flat := NewFlatIndex(16)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIVFPQ(data, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := GenClustered(1, 16, 8, 0.5, 2)[0]
	truth, err := flat.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Search(q, 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r := Recall(truth, got, 5); r < 0.4 {
		t.Errorf("full-probe recall = %v, want reasonable approximation", r)
	}
}

func TestPublicAPITraces(t *testing.T) {
	reqs, err := PoissonTrace(100, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 100 {
		t.Fatalf("got %d requests", len(reqs))
	}
	burst := BurstTrace(8)
	for _, r := range burst {
		if r.Arrival != 0 {
			t.Errorf("burst request arrives at %v", r.Arrival)
		}
	}
}

func TestPublicAPIHardwareCatalog(t *testing.T) {
	for _, x := range []XPU{XPUA, XPUB, XPUC} {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if DefaultCluster().XPUs() != 64 || LargeCluster().XPUs() != 128 {
		t.Errorf("cluster presets changed: %d / %d", DefaultCluster().XPUs(), LargeCluster().XPUs())
	}
	if EPYCHost.Cores != 96 {
		t.Errorf("EPYC host cores = %d", EPYCHost.Cores)
	}
}

func TestPublicAPIMetricsSanity(t *testing.T) {
	// Metrics from the facade behave like perf metrics.
	m := Metrics{TTFT: 0.1, TPOT: 0.01, QPS: 10, QPSPerChip: 1}
	if !m.Valid() {
		t.Errorf("valid metrics rejected")
	}
	bad := Metrics{TTFT: math.Inf(1)}
	if bad.Valid() {
		t.Errorf("infinite TTFT accepted")
	}
}

func TestPublicAPIHeterogeneousShapes(t *testing.T) {
	// The workload-realism loop: shape a trace with heavy-tailed lengths,
	// compile a plan, get the shape-weighted analytical reference, serve,
	// and read per-shape buckets plus padding waste from the report.
	schema := CaseI(8e9, 1)
	cluster := DefaultCluster()
	// A fixed schedule with a fast decode tier, so the completion span is
	// dominated by serving, not by the last sequences' generations (the
	// span-based QPS estimate needs span >> mean generation time).
	sched := Schedule{
		Groups:           []GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}
	plan, err := CompilePlan(schema, sched, cluster)
	if err != nil {
		t.Fatal(err)
	}

	prompt, err := LognormalLengths(512, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	output, err := LognormalLengths(256, 0.7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	base, err := PoissonTrace(n, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	reqs := WithShapes(base, prompt, output, 19)
	shapes := make([]Shape, len(reqs))
	for i, r := range reqs {
		shapes[i] = Shape{PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
	}
	want := plan.ShapeMetrics(shapes)
	if !(want.QPS < plan.Metrics.QPS) {
		t.Fatalf("shape-weighted QPS %.2f should undercut constant %.2f", want.QPS, plan.Metrics.QPS)
	}
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
	}

	rt, err := NewServer(plan, ServeOptions{Speedup: (n / want.QPS) / 4.0})
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
	if ratio := rep.SustainedQPS / want.QPS; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("served QPS %.2f vs shape-weighted reference %.2f (ratio %.2f)", rep.SustainedQPS, want.QPS, ratio)
	}
	if len(rep.Shapes) < 2 || rep.PadWaste <= 0 {
		t.Errorf("report missing shape artifacts: %d buckets, pad waste %.3f", len(rep.Shapes), rep.PadWaste)
	}

	// Degenerate sampler inputs are rejected descriptively.
	if _, err := ConstantLengths(0); err == nil {
		t.Error("0-token constant length should be rejected")
	}
	if _, err := LognormalLengths(1024, 0.5, 512); err == nil {
		t.Error("median beyond the clamp should be rejected")
	}
}
