package engine

import "rago/internal/perf"

// Cache-aware costing. A prefix/KV cache hit (internal/cache) means a
// request's retrieved-context KV is already resident: the prefix stage
// prefills only the uncached suffix. The rule shared by both executors and
// the analytical model is EffectivePrompt — the discounted prompt length a
// credited request is costed at — with the discounted batches priced
// through the existing shaped costing (StepLatencyShaped → the memoizing
// profiler), so a cached batch is just a shaped batch with shorter
// members.

// EffectivePrompt returns the prompt length a request prefills after a
// prefix-cache credit of `credit` tokens. promptTok uses the trace
// encoding (0 = schema constant). A zero credit returns promptTok
// unchanged — preserving the 0 encoding, so uncredited unshaped requests
// keep taking the precompiled constant-shape path bit for bit. A positive
// credit discounts the request's full prompt (explicit or schema
// constant), floored at one token: the query suffix is never cached, so
// some prefill always remains.
func (p *Plan) EffectivePrompt(promptTok, credit int) int {
	if credit <= 0 {
		return promptTok
	}
	base := promptTok
	if base <= 0 {
		base = p.Pipe.Schema.PrefixTokens
	}
	eff := base - credit
	if eff < 1 {
		eff = 1
	}
	return eff
}

// CachedMetrics re-weights the plan's analytical prediction over an
// empirical shape distribution with per-request prefix-cache credits —
// the cache-aware reference a credited replay is cross-checked against,
// exactly as ShapeMetrics is for uncached heterogeneous traces. shapes
// may be empty for a constant-shape trace (every request at the schema
// shape); credits then supplies the length. Decode is untouched: cached
// KV discounts prefill, not generation.
func (p *Plan) CachedMetrics(shapes []Shape, credits []int) perf.Metrics {
	if len(credits) == 0 {
		return p.ShapeMetrics(shapes)
	}
	eff := make([]Shape, len(credits))
	for i := range credits {
		var s Shape
		if i < len(shapes) {
			s = shapes[i]
		}
		s.PromptTokens = p.EffectivePrompt(s.PromptTokens, credits[i])
		eff[i] = s
	}
	return p.ShapeMetrics(eff)
}
