package engine

import (
	"testing"

	"rago/internal/ragschema"
)

func TestEffectivePrompt(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	schemaPrompt := plan.Pipe.Schema.PrefixTokens

	cases := []struct {
		prompt, credit, want int
	}{
		{0, 0, 0},     // uncredited schema-constant: 0 encoding preserved
		{256, 0, 256}, // uncredited explicit prompt unchanged
		{256, -5, 256},
		{0, 100, schemaPrompt - 100}, // credit against the schema constant
		{256, 100, 156},
		{256, 255, 1},
		{256, 300, 1},  // over-credit floors at one token
		{256, 9999, 1}, // never zero or negative
	}
	for _, tc := range cases {
		if got := plan.EffectivePrompt(tc.prompt, tc.credit); got != tc.want {
			t.Errorf("EffectivePrompt(%d, %d) = %d, want %d", tc.prompt, tc.credit, got, tc.want)
		}
	}
}

// TestCachedMetricsDegenerate: no credits means CachedMetrics is exactly
// ShapeMetrics (and, for a constant-shape trace, exactly the compiled
// analytic point) — the inertness guarantee at the costing layer.
func TestCachedMetricsDegenerate(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())

	if got, want := plan.CachedMetrics(nil, nil), plan.Metrics; got != want {
		t.Errorf("CachedMetrics(nil, nil) = %+v, want the analytic point %+v", got, want)
	}
	shapes := []Shape{{PromptTokens: 300}, {PromptTokens: 700}, {}}
	if got, want := plan.CachedMetrics(shapes, nil), plan.ShapeMetrics(shapes); got != want {
		t.Errorf("CachedMetrics(shapes, nil) = %+v, want ShapeMetrics %+v", got, want)
	}
	// All-zero credits cost identically to no credits.
	if got, want := plan.CachedMetrics(shapes, make([]int, len(shapes))), plan.ShapeMetrics(shapes); got != want {
		t.Errorf("all-zero credits drifted: %+v vs %+v", got, want)
	}
}

// prefixBoundSchedule is Case I with the prefix tier starved (2 chips
// instead of 16) so the prefill stage, not decode, bounds throughput — the
// regime where a prefix-cache credit moves QPS, not just TTFT.
func prefixBoundSchedule() Schedule {
	s := caseISchedule()
	s.Groups[0].Chips = 2
	return s
}

// TestCachedMetricsImproves: credits can only help — higher QPS, no worse
// TTFT — and a bigger credit helps at least as much.
func TestCachedMetricsImproves(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), prefixBoundSchedule())
	base := plan.Metrics

	credits := make([]int, 100)
	for i := range credits {
		if i%2 == 0 {
			credits[i] = plan.Pipe.Schema.RetrievedTokens()
		}
	}
	cached := plan.CachedMetrics(nil, credits)
	if cached.QPS < base.QPS {
		t.Errorf("cached QPS %.2f below uncached %.2f", cached.QPS, base.QPS)
	}
	if cached.TTFT > base.TTFT*1.0001 {
		t.Errorf("cached TTFT %.4f above uncached %.4f", cached.TTFT, base.TTFT)
	}

	all := make([]int, 100)
	for i := range all {
		all[i] = plan.Pipe.Schema.RetrievedTokens()
	}
	full := plan.CachedMetrics(nil, all)
	if full.QPS < cached.QPS {
		t.Errorf("full-hit QPS %.2f below half-hit %.2f", full.QPS, cached.QPS)
	}
}
