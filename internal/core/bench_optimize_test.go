package core

import (
	"testing"

	"rago/internal/hw"
	"rago/internal/ragschema"
)

// BenchmarkOptimizeCaseIV measures the full schedule search on the richest
// non-iterative workload (rewriter + retrieval + reranker) with and
// without the stage-pricing memos — the profiler's shared caches and each
// search worker's Evaluator memo, both of which stageperf.NoMemo turns
// off. The memoized variant is the production configuration; the no-memo
// variant re-runs the underlying roofline/vector-search models every time
// the search prices a (stage, chips, batch, replicas) tuple, which is what
// every Optimize call paid before the caches existed. Both variants share
// each pre-decode prefix's partials across its plans and each group's
// choices across plans: those memos are part of the search, not of
// pricing, so they stay on.
func BenchmarkOptimizeCaseIV(b *testing.B) {
	run := func(b *testing.B, noMemo bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o, err := NewOptimizer(ragschema.CaseIV(8e9), DefaultOptions(hw.DefaultCluster()))
			if err != nil {
				b.Fatal(err)
			}
			o.Prof.NoMemo = noMemo
			if front := o.Optimize(); len(front) == 0 {
				b.Fatal("empty frontier")
			}
		}
	}
	b.Run("memoized", func(b *testing.B) { run(b, false) })
	b.Run("no-memo", func(b *testing.B) { run(b, true) })
}

// BenchmarkOptimizeCaseV measures the search on the two-source Case V
// workload, whose parallel retrieval tiers make the inner loop shape
// different from Case IV, with branch-and-bound pruning on (the production
// path) and off (the exhaustive reference the differential test compares
// against).
func BenchmarkOptimizeCaseV(b *testing.B) {
	run := func(b *testing.B, noPrune bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o, err := NewOptimizer(ragschema.CaseV(8e9, 2), DefaultOptions(hw.DefaultCluster()))
			if err != nil {
				b.Fatal(err)
			}
			if noPrune {
				exhaustiveRef(o)
			}
			if front := o.Optimize(); len(front) == 0 {
				b.Fatal("empty frontier")
			}
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("exhaustive", func(b *testing.B) { run(b, true) })
}
