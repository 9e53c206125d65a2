package rago

// One benchmark per table and figure of the paper, plus ablation
// benchmarks for the optimizer's design choices. Each benchmark
// regenerates its artifact through the internal/bench harness and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end.

import (
	"testing"

	"rago/internal/bench"
	"rago/internal/core"
	"rago/internal/hw"
	"rago/internal/model"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/roofline"
	"rago/internal/stageperf"
	"rago/internal/vectordb"
	"rago/internal/xpusim"
)

func reportMax(b *testing.B, name string, s bench.Series) {
	best := 0.0
	for _, y := range s.Y {
		if y > best {
			best = y
		}
	}
	b.ReportMetric(best, name)
}

// BenchmarkTable2XPUCatalog exercises the hardware catalog (Table 2).
func BenchmarkTable2XPUCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, x := range hw.XPUGenerations() {
			if err := x.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3Schemas builds the four case-study pipelines (Table 3).
func BenchmarkTable3Schemas(b *testing.B) {
	schemas := []ragschema.Schema{
		ragschema.CaseI(8e9, 1), ragschema.CaseII(70e9, 1_000_000),
		ragschema.CaseIII(8e9, 4), ragschema.CaseIV(70e9),
	}
	for i := 0; i < b.N; i++ {
		for _, s := range schemas {
			if _, err := pipeline.Build(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure5 regenerates the RAG-vs-LLM-only comparison.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMax(b, "rag8B-qps/chip", series[2])
			reportMax(b, "llm70B-qps/chip", series[3])
		}
	}
}

// BenchmarkFigure6 regenerates the query-count sensitivity (8B model).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.Figure6QPS(8e9)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Figure6Breakdown(8e9); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportMax(b, "q1-qps/chip", series[0])
			reportMax(b, "q8-qps/chip", series[3])
		}
	}
}

// BenchmarkFigure7a regenerates the XPU-generation sensitivity.
func BenchmarkFigure7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7b regenerates the scan-fraction sensitivity.
func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7c regenerates the sequence-length heatmap.
func BenchmarkFigure7c(b *testing.B) {
	var corner float64
	for i := 0; i < b.N; i++ {
		cells, err := bench.Figure7c()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Row == "decode=128" && c.Col == "prefix=128" {
				corner = c.Value
			}
		}
	}
	b.ReportMetric(corner, "retrieval%@128/128")
}

// BenchmarkFigure8 regenerates the long-context study.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8QPS(70e9); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Figure8Breakdown(70e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLongContextSpeedup regenerates the §5.2 headline comparison.
func BenchmarkLongContextSpeedup(b *testing.B) {
	var ttftX, qpsX float64
	for i := 0; i < b.N; i++ {
		var err error
		ttftX, qpsX, err = bench.LongContextSpeedup(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ttftX, "ttft-speedup-x")
	b.ReportMetric(qpsX, "qps-speedup-x")
}

// BenchmarkFigure9a regenerates TPOT vs decode batch (iterative sim).
func BenchmarkFigure9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9a(70e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9b regenerates TPOT vs iterative batch.
func BenchmarkFigure9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9b(70e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the decode-idleness heatmap.
func BenchmarkFigure10(b *testing.B) {
	var diag float64
	for i := 0; i < b.N; i++ {
		cells, err := bench.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Row == "iter=64" && c.Col == "dec=64" {
				diag = c.Value
			}
		}
	}
	b.ReportMetric(diag, "norm-latency@64/64")
}

// BenchmarkFigure11 regenerates the rewriter/reranker study.
func BenchmarkFigure11(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		var err error
		_, ratio, err = bench.Figure11()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ratio, "rewriter-ttft-x")
}

// BenchmarkFigure15CaseII regenerates the RAGO-vs-baseline frontier for
// the long-context workload.
func BenchmarkFigure15CaseII(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		var err error
		_, _, gain, err = bench.Figure15(bench.EvalCaseII)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gain, "rago-gain-x")
}

// BenchmarkFigure15CaseIV regenerates the RAGO-vs-baseline frontier for
// the rewriter+reranker workload (a ~35K-plan sweep; slow).
func BenchmarkFigure15CaseIV(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		var err error
		_, _, gain, err = bench.Figure15(bench.EvalCaseIV)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gain, "rago-gain-x")
}

// BenchmarkFigure16 regenerates the Pareto-composition analysis (C-II).
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Figure16(bench.EvalCaseII, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure17 regenerates the placement sensitivity (C-II).
func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure17(bench.EvalCaseII); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure18 regenerates the allocation sensitivity (C-II).
func BenchmarkFigure18(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		var err error
		spread, _, _, err = bench.Figure18(bench.EvalCaseII, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(spread, "alloc-spread-x")
}

// BenchmarkFigure19CaseI regenerates micro-batching for hyperscale
// retrieval.
func BenchmarkFigure19CaseI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure19CaseI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure19CaseII regenerates micro-batching for long context.
func BenchmarkFigure19CaseII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure19CaseII(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the schedule comparison table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices) ---

// BenchmarkAblationParetoPruning compares the optimizer's incremental
// Pareto-pruned batch search against brute-force enumeration of every
// batching policy for one plan (Algorithm 1's step-1 pruning is what makes
// the full search tractable).
func BenchmarkAblationParetoPruning(b *testing.B) {
	schema := ragschema.CaseI(8e9, 1)
	opts := core.DefaultOptions(hw.DefaultCluster())
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		b.Fatal(err)
	}
	plan := core.Plan{
		Placement:   o.Pipe.FullyDisaggregated(),
		GroupChips:  []int{16},
		DecodeChips: 16,
		Servers:     16,
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := o.PlanFrontier(plan); len(got) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var pts []core.SchedulePoint
			for _, pb := range roofline.Pow2Range(1, opts.MaxPreBatch) {
				for _, rb := range roofline.Pow2Range(1, opts.MaxRetrievalBatch) {
					for _, db := range roofline.Pow2Range(1, opts.MaxDecodeBatch) {
						for _, r := range []int{1, 2, 4, 8, 16} {
							s := core.Schedule{
								Groups:           []core.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: pb}},
								RetrievalServers: 16,
								RetrievalBatch:   rb,
								DecodeChips:      16,
								DecodeBatch:      db,
								DecodeReplicas:   r,
							}
							if plan, err := o.Compile(s); err == nil {
								pts = append(pts, core.SchedulePoint{Metrics: plan.Metrics, Item: s})
							}
						}
					}
				}
			}
			if got := perf.Frontier(pts); len(got) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})
}

// BenchmarkAblationCollocationRule compares RAGO's Fig.-13 neighbor-only
// placement space against the unrestricted contiguous-partition space for
// Case IV, measuring both search cost and resulting frontier quality.
func BenchmarkAblationCollocationRule(b *testing.B) {
	schema := ragschema.CaseIV(70e9)
	run := func(b *testing.B, placements []pipeline.Placement) float64 {
		opts := core.DefaultOptions(hw.DefaultCluster())
		opts.NormalizeChips = 64
		opts.Placements = placements
		o, err := core.NewOptimizer(schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for i := 0; i < b.N; i++ {
			front := o.Optimize()
			if p, ok := perf.MaxQPSPerChip(front); ok {
				best = p.Metrics.QPSPerChip
			}
		}
		return best
	}
	b.Run("neighbor-rule", func(b *testing.B) {
		pipe, err := pipeline.Build(schema)
		if err != nil {
			b.Fatal(err)
		}
		best := run(b, pipe.Placements())
		b.ReportMetric(best, "max-qps/chip")
		b.ReportMetric(float64(len(pipe.Placements())), "placements")
	})
	b.Run("unrestricted", func(b *testing.B) {
		pipe, err := pipeline.Build(schema)
		if err != nil {
			b.Fatal(err)
		}
		placements := append(pipe.Placements(), pipe.BaselinePlacement())
		best := run(b, placements)
		b.ReportMetric(best, "max-qps/chip")
		b.ReportMetric(float64(len(placements)), "placements")
	})
}

// BenchmarkAblationKVPrecision quantifies the decode-throughput effect of
// FP16 versus INT8 KV caches (a §2 what-if on the 8B model).
func BenchmarkAblationKVPrecision(b *testing.B) {
	s := xpusim.New(hw.XPUC)
	run := func(b *testing.B, kvBytes float64) {
		cfg := model.Llama8B
		cfg.KVBytesPerElem = kvBytes
		var thr float64
		for i := 0; i < b.N; i++ {
			r, err := s.DecodeStep(cfg, 256, 640, 1)
			if err != nil {
				b.Fatal(err)
			}
			thr = r.Throughput
		}
		b.ReportMetric(thr, "tokens/s")
	}
	b.Run("fp16-kv", func(b *testing.B) { run(b, 2) })
	b.Run("int8-kv", func(b *testing.B) { run(b, 1) })
}

// BenchmarkAblationSystolicEfficiency contrasts the fill-aware systolic
// model against ideal-peak compute for a short prefix — the reason
// short-prompt inference lands far below accelerator peak.
func BenchmarkAblationSystolicEfficiency(b *testing.B) {
	schema := ragschema.LLMOnly(8e9)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		b.Fatal(err)
	}
	pre := pipe.Stages[pipe.Index(pipeline.KindPrefix)]
	run := func(b *testing.B, sim xpusim.Simulator) {
		prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
		prof.Sim = sim
		var lat float64
		for i := 0; i < b.N; i++ {
			pt := prof.Eval(pre, 1, 1)
			if !pt.OK {
				b.Fatal("infeasible")
			}
			lat = pt.Latency
		}
		b.ReportMetric(lat*1e3, "prefix-ms")
	}
	b.Run("fill-aware", func(b *testing.B) { run(b, xpusim.New(hw.XPUC)) })
	b.Run("ideal-peak", func(b *testing.B) {
		s := xpusim.New(hw.XPUC)
		s.Chip.SystolicDim = 1 // disables the fill/padding model
		run(b, s)
	})
}

// BenchmarkWhatIf runs the §8 what-if analyses (retrieval acceleration,
// document-KV reuse, iterative prefetching).
func BenchmarkWhatIf(b *testing.B) {
	var unlocked float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.WhatIfRetrievalAccelerator(10)
		if err != nil {
			b.Fatal(err)
		}
		unlocked = rows[1].QPSPerChip / rows[0].QPSPerChip
		if _, err := bench.WhatIfKVCacheReuse(); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.WhatIfPrefetching(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(unlocked, "accel-unlock-x")
}

// --- Substrate micro-benchmarks ---

// BenchmarkVectorIVFPQSearch measures the real IVF-PQ substrate.
func BenchmarkVectorIVFPQSearch(b *testing.B) {
	data := vectordb.GenClustered(10_000, 32, 16, 1.0, 42)
	ix, err := vectordb.BuildIVFPQ(data, 128, 16, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := vectordb.GenClustered(1, 32, 16, 1.0, 43)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, 10, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorFlatSearch measures exact kNN.
func BenchmarkVectorFlatSearch(b *testing.B) {
	data := vectordb.GenUniform(10_000, 32, 42)
	ix := vectordb.NewFlat(32)
	if err := ix.Add(data...); err != nil {
		b.Fatal(err)
	}
	q := vectordb.GenUniform(1, 32, 43)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerCaseI measures the end-to-end schedule search on the
// default pool.
func BenchmarkOptimizerCaseI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions(hw.DefaultCluster())
		o, err := core.NewOptimizer(ragschema.CaseI(8e9, 1), opts)
		if err != nil {
			b.Fatal(err)
		}
		if front := o.Optimize(); len(front) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
