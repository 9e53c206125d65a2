package bench

import (
	"math"
	"strings"
	"testing"

	"rago/internal/hw"
	"rago/internal/ragschema"
)

func cellValue(t *testing.T, cells []Cell, row, col string) float64 {
	t.Helper()
	for _, c := range cells {
		if c.Row == row && c.Col == col {
			return c.Value
		}
	}
	t.Fatalf("no cell (%s, %s)", row, col)
	return 0
}

func maxY(s Series) float64 {
	best := 0.0
	for _, y := range s.Y {
		if y > best {
			best = y
		}
	}
	return best
}

func TestFigure5Shapes(t *testing.T) {
	series, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	rag1, rag8 := maxY(byName["RAG 1B"]), maxY(byName["RAG 8B"])
	llm8, llm70 := maxY(byName["LLM-only 8B"]), maxY(byName["LLM-only 70B"])
	// Takeaway 1: RAG 8B beats LLM-only 70B (paper: 1.5x).
	if rag8 <= llm70 {
		t.Errorf("RAG 8B (%.2f) should beat LLM-only 70B (%.2f)", rag8, llm70)
	}
	// Takeaway 2: RAG 1B ~ RAG 8B (both retrieval-bound).
	if rag1 < rag8*0.85 || rag1 > rag8*1.15 {
		t.Errorf("RAG 1B (%.2f) should tie RAG 8B (%.2f)", rag1, rag8)
	}
	// Takeaway 3: RAG 1B's QPS/chip does not scale 8x over LLM-only 8B
	// (retrieval overhead outweighs the smaller model).
	if rag1 > llm8*8 {
		t.Errorf("RAG 1B (%.2f) scaling vs LLM-only 8B (%.2f) should be sub-proportional", rag1, llm8)
	}
}

func TestFigure6QueryScaling(t *testing.T) {
	series, err := Figure6QPS(8e9)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: as query counts double, QPS nearly halves (retrieval-bound
	// 8B model).
	q1, q2, q4, q8 := maxY(series[0]), maxY(series[1]), maxY(series[2]), maxY(series[3])
	for _, r := range []struct {
		name string
		a, b float64
	}{{"1->2", q1, q2}, {"2->4", q2, q4}, {"4->8", q4, q8}} {
		ratio := r.a / r.b
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("queries %s: QPS ratio %.2f, want ~2 (retrieval halves)", r.name, ratio)
		}
	}
	// The no-retrieval reference (same prefix) beats all retrieval
	// configurations.
	noRetr := maxY(series[4])
	if noRetr <= q1 {
		t.Errorf("no-retrieval (%.2f) should beat 1-query (%.2f)", noRetr, q1)
	}
}

func TestFigure6BreakdownShares(t *testing.T) {
	bds, err := Figure6Breakdown(8e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(bds) != 4 {
		t.Fatalf("got %d breakdowns", len(bds))
	}
	prev := 0.0
	for _, b := range bds {
		var sum float64
		for _, s := range b.Shares {
			sum += s
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: shares sum to %.2f, want 100", b.Label, sum)
		}
		retr := b.shareOf("retrieval")
		if retr <= prev {
			t.Errorf("retrieval share should grow with query count: %v after %v", retr, prev)
		}
		prev = retr
	}
	// Paper: the 8B model at default config spends >50% in retrieval.
	if bds[0].shareOf("retrieval") < 50 {
		t.Errorf("8B 1-query retrieval share = %.1f%%, want > 50%%", bds[0].shareOf("retrieval"))
	}
}

func TestFigure7aXPUTrend(t *testing.T) {
	cells, err := Figure7a()
	if err != nil {
		t.Fatal(err)
	}
	// Retrieval share grows with accelerator generation for every model
	// (paper: up to +25% A->C).
	for _, size := range []string{"1B", "8B", "70B", "405B"} {
		a := cellValue(t, cells, "XPU-A", size)
		b := cellValue(t, cells, "XPU-B", size)
		c := cellValue(t, cells, "XPU-C", size)
		if !(a < b && b < c) {
			t.Errorf("%s: retrieval share not increasing across generations: %v %v %v", size, a, b, c)
		}
	}
	// Small models are retrieval-dominant; 405B is inference-dominant.
	if v := cellValue(t, cells, "XPU-C", "1B"); v < 50 {
		t.Errorf("1B on XPU-C retrieval share = %.1f, want > 50", v)
	}
	if v := cellValue(t, cells, "XPU-C", "405B"); v > 30 {
		t.Errorf("405B on XPU-C retrieval share = %.1f, want < 30", v)
	}
}

func TestFigure7bScanTrend(t *testing.T) {
	cells, err := Figure7b()
	if err != nil {
		t.Fatal(err)
	}
	// More scanned vectors -> more retrieval share, for every model.
	for _, size := range []string{"1B", "8B", "70B", "405B"} {
		lo := cellValue(t, cells, "0.01%", size)
		mid := cellValue(t, cells, "0.10%", size)
		hi := cellValue(t, cells, "1.00%", size)
		if !(lo < mid && mid < hi) {
			t.Errorf("%s: retrieval share not increasing with scan fraction: %v %v %v", size, lo, mid, hi)
		}
	}
}

func TestFigure7cMatchesPaperAnchors(t *testing.T) {
	cells, err := Figure7c()
	if err != nil {
		t.Fatal(err)
	}
	// Paper's corners: 86.3% at (prefix 128, decode 128) and 30.9% at
	// (prefix 2048, decode 512). Allow +-8 percentage points.
	hi := cellValue(t, cells, "decode=128", "prefix=128")
	if hi < 78 || hi > 94 {
		t.Errorf("short-sequence retrieval share = %.1f%%, want ~86.3%%", hi)
	}
	lo := cellValue(t, cells, "decode=512", "prefix=2048")
	if lo < 23 || lo > 39 {
		t.Errorf("long-sequence retrieval share = %.1f%%, want ~30.9%%", lo)
	}
	// Monotone: share falls with prefix length at fixed decode.
	for _, dec := range []string{"decode=128", "decode=256", "decode=512"} {
		prev := 101.0
		for _, pre := range []string{"prefix=128", "prefix=256", "prefix=512", "prefix=1024", "prefix=2048"} {
			v := cellValue(t, cells, dec, pre)
			if v >= prev {
				t.Errorf("%s/%s: share %v not decreasing", dec, pre, v)
			}
			prev = v
		}
	}
}

func TestFigure8ContextDegradation(t *testing.T) {
	series, err := Figure8QPS(70e9)
	if err != nil {
		t.Fatal(err)
	}
	// QPS/chip falls monotonically as context grows (encode dominates).
	for i := 1; i < len(series); i++ {
		if maxY(series[i]) >= maxY(series[i-1]) {
			t.Errorf("QPS should fall with context: %s %.3f >= %s %.3f",
				series[i].Name, maxY(series[i]), series[i-1].Name, maxY(series[i-1]))
		}
	}
}

func TestFigure8EncodeDominates(t *testing.T) {
	bds, err := Figure8Breakdown(70e9)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: at >= 1M tokens the database encoder is the bottleneck,
	// and retrieval is negligible (<1%).
	for _, b := range bds[1:] { // 1M and 10M
		if b.shareOf("encode") < 50 {
			t.Errorf("%s: encode share = %.1f%%, want > 50%%", b.Label, b.shareOf("encode"))
		}
		if b.shareOf("retrieval") > 1 {
			t.Errorf("%s: retrieval share = %.2f%%, want < 1%%", b.Label, b.shareOf("retrieval"))
		}
	}
	// Encode share grows with context length.
	if !(bds[0].shareOf("encode") < bds[1].shareOf("encode")) {
		t.Errorf("encode share should grow with context")
	}
}

func TestLongContextSpeedupOrders(t *testing.T) {
	ttftX, qpsX, err := LongContextSpeedup(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2852x TTFT, 6634x QPS/chip. Our model lands within the
	// same orders of magnitude; the win must be enormous either way.
	if ttftX < 100 {
		t.Errorf("TTFT speedup = %.0fx, want >= 100x", ttftX)
	}
	if qpsX < 20 {
		t.Errorf("QPS/chip speedup = %.0fx, want >= 20x", qpsX)
	}
}

func TestFigure10PaperAnchors(t *testing.T) {
	cells, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal anchors (paper): 1.71 at 4/4, 2.77 at 64/64.
	d4 := cellValue(t, cells, "iter=4", "dec=4")
	if d4 < 1.4 || d4 > 2.1 {
		t.Errorf("4/4 normalized latency = %.2f, want ~1.71", d4)
	}
	d64 := cellValue(t, cells, "iter=64", "dec=64")
	if d64 < 2.3 || d64 > 3.4 {
		t.Errorf("64/64 normalized latency = %.2f, want ~2.77", d64)
	}
	// Off-diagonal anchor: 1.14 at iter=16/dec=64.
	o := cellValue(t, cells, "iter=16", "dec=64")
	if o < 1.0 || o > 1.35 {
		t.Errorf("16/64 normalized latency = %.2f, want ~1.14", o)
	}
	// Bottom row: iterative batch 1 costs nothing.
	if v := cellValue(t, cells, "iter=1", "dec=256"); v > 1.05 {
		t.Errorf("1/256 normalized latency = %.2f, want ~1.0", v)
	}
}

func TestFigure9aShapes(t *testing.T) {
	series, err := Figure9a(70e9)
	if err != nil {
		t.Fatal(err)
	}
	// At the largest decode batch, TPOT strictly grows with retrieval
	// frequency (paper: the gap widens at large batches).
	last := func(s Series) float64 { return s.Y[len(s.Y)-1] }
	for i := 1; i < len(series); i++ {
		if last(series[i]) <= last(series[i-1]) {
			t.Errorf("TPOT at max batch should grow with frequency: %s %.4f vs %s %.4f",
				series[i].Name, last(series[i]), series[i-1].Name, last(series[i-1]))
		}
	}
	// And TPOT grows with decode batch beyond the small-batch region.
	for _, s := range series {
		if s.Y[len(s.Y)-1] <= s.Y[2] {
			t.Errorf("%s: TPOT at batch 1024 (%.4f) should exceed batch 16 (%.4f)", s.Name, s.Y[len(s.Y)-1], s.Y[2])
		}
	}
}

func TestFigure9bReversal(t *testing.T) {
	series, err := Figure9b(70e9)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	// Paper: at decode batch 256 larger iterative batches REDUCE TPOT;
	// at decode batch 64 the curve is non-monotone (minimum in the
	// middle, climbing again at 64).
	d256 := byName["dec batch 256"]
	if d256.Y[0] <= d256.Y[len(d256.Y)-1] {
		t.Errorf("dec=256: TPOT should fall from iter=1 (%.4f) to iter=64 (%.4f)", d256.Y[0], d256.Y[len(d256.Y)-1])
	}
	d64 := byName["dec batch 64"]
	min := d64.Y[0]
	for _, y := range d64.Y {
		if y < min {
			min = y
		}
	}
	if !(min < d64.Y[0] && min < d64.Y[len(d64.Y)-1]) {
		t.Errorf("dec=64: expected interior TPOT minimum, got %v", d64.Y)
	}
}

func TestFigure11RewriterTTFT(t *testing.T) {
	bds, ratio, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: rewriter+reranker barely consume resources...
	for _, b := range bds {
		if s := b.shareOf("rewrite-prefix") + b.shareOf("rewrite-decode") + b.shareOf("rerank"); s > 15 {
			t.Errorf("%s: rewriter+reranker share = %.1f%%, want small", b.Label, s)
		}
	}
	// ...but the rewriter's autoregressive decode inflates TTFT
	// (paper: 2.4x; accept 1.4-3.5x).
	if ratio < 1.4 || ratio > 3.5 {
		t.Errorf("rewriter TTFT inflation = %.2fx, want ~2.4x", ratio)
	}
}

func TestFigure15CaseII(t *testing.T) {
	rago, base, gain, err := Figure15(EvalCaseII)
	if err != nil {
		t.Fatal(err)
	}
	if gain < 1.3 || gain > 2.3 {
		t.Errorf("Case II RAGO gain = %.2fx, want ~1.7x", gain)
	}
	if len(rago.X) == 0 || len(base.X) == 0 {
		t.Errorf("empty frontiers")
	}
}

func TestFigure16ComposesGlobalPareto(t *testing.T) {
	sums, global, err := Figure16(EvalCaseII, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) < 2 {
		t.Fatalf("want multiple plans, got %d", len(sums))
	}
	// The global frontier's best throughput equals the best plan's.
	if maxY(global) < sums[0].MaxQPSChip*0.999 {
		t.Errorf("global Pareto (%.3f) below best plan (%.3f)", maxY(global), sums[0].MaxQPSChip)
	}
	// Different plans should win at different objectives (the paper's
	// "no one-size-fits-all"): min-TTFT plan != max-QPS plan.
	minTTFTPlan := sums[0]
	for _, s := range sums {
		if s.MinTTFT < minTTFTPlan.MinTTFT {
			minTTFTPlan = s
		}
	}
	if minTTFTPlan.Desc == sums[0].Desc {
		t.Logf("note: one plan wins both objectives in Case II (allowed, but unusual)")
	}
}

func TestFigure17CaseIIPlacementInsensitive(t *testing.T) {
	classes, err := Figure17(EvalCaseII)
	if err != nil {
		t.Fatal(err)
	}
	dis, ok1 := classes[PlacementDisaggregated]
	col, ok2 := classes[PlacementCollocated]
	if !ok1 || !ok2 {
		t.Fatalf("missing placement classes: %v", classes)
	}
	// Paper: only ~2% max-QPS difference between collocated and
	// disaggregated in Case II. Allow 10%.
	a, b := maxY(dis), maxY(col)
	ratio := a / b
	if ratio < 1/1.10 || ratio > 1.10 {
		t.Errorf("Case II placement sensitivity = %.2f, want within 10%%", ratio)
	}
}

func TestFigure18AllocationSpread(t *testing.T) {
	// Paper: Case II allocations spread 64.1x disaggregated and 52.5x
	// collocated in max QPS/chip; the model reads 67.4x and 56.3x.
	for _, tc := range []struct {
		name       string
		collocated bool
		paper      float64
	}{
		{"disaggregated", false, 64.1},
		{"collocated", true, 52.5},
	} {
		spread, best, worst, err := Figure18(EvalCaseII, tc.collocated)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(spread/tc.paper-1) > 0.10 {
			t.Errorf("%s allocation spread = %.1fx, want within 10%% of the paper's %.1fx", tc.name, spread, tc.paper)
		}
		if best.MaxQPSChip <= worst.MaxQPSChip {
			t.Errorf("%s: best (%.3f) must beat worst (%.4f)", tc.name, best.MaxQPSChip, worst.MaxQPSChip)
		}
	}
}

func TestFigure19CaseIIReductions(t *testing.T) {
	cells, err := Figure19CaseII()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1M context reaches ~55% reduction at burst 32 and is
	// already effective (>= 15%) at burst 2.
	v32 := cellValue(t, cells, "ctx=1M", "burst=32")
	if v32 < 40 || v32 > 70 {
		t.Errorf("1M burst-32 reduction = %.1f%%, want ~55%%", v32)
	}
	v2 := cellValue(t, cells, "ctx=1M", "burst=2")
	if v2 < 15 {
		t.Errorf("1M burst-2 reduction = %.1f%%, want >= 15%% (paper 18.7%%)", v2)
	}
	// Reduction grows with burst size.
	prev := -1.0
	for _, b := range []string{"burst=2", "burst=4", "burst=8", "burst=16", "burst=32"} {
		v := cellValue(t, cells, "ctx=1M", b)
		if v < prev {
			t.Errorf("reduction should grow with burst: %s = %v after %v", b, v, prev)
		}
		prev = v
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	get := func(name string) Table4Row {
		for _, r := range rows {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("missing row %q", name)
		return Table4Row{}
	}
	ragoMax := get("RAGO (Max QPS/Chip)")
	ragoMin := get("RAGO (Min TTFT)")
	baseMax := get("Baseline (Max QPS/Chip)")
	if ragoMax.QPSPerChip <= baseMax.QPSPerChip {
		t.Errorf("RAGO max QPS/chip (%.3f) must beat baseline (%.3f)", ragoMax.QPSPerChip, baseMax.QPSPerChip)
	}
	if ragoMin.TTFT >= ragoMax.TTFT {
		t.Errorf("min-TTFT schedule (%.3f) must be faster than max-QPS schedule (%.3f)", ragoMin.TTFT, ragoMax.TTFT)
	}
	// The paper's Table 4 max-QPS schedule dedicates most XPUs to the
	// encoder (64 of 96); ours must likewise give encode the largest
	// share.
	encodeChips := ragoMax.Schedule.Groups[0].Chips
	if encodeChips <= ragoMax.Schedule.DecodeChips {
		t.Errorf("encode chips (%d) should dominate decode chips (%d)", encodeChips, ragoMax.Schedule.DecodeChips)
	}
}

func TestRetrievalShareHelper(t *testing.T) {
	share, err := RetrievalShare(ragschema.CaseI(8e9, 1), hw.XPUC)
	if err != nil {
		t.Fatal(err)
	}
	if share < 40 || share > 85 {
		t.Errorf("default 8B retrieval share = %.1f%%, want 40-85%%", share)
	}
}

func TestRenderers(t *testing.T) {
	s := []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}, XLabel: "x", YLabel: "y"}}
	if out := RenderSeries("t", s); !strings.Contains(out, "a") || !strings.Contains(out, "3.0") {
		t.Errorf("RenderSeries output %q", out)
	}
	if out := RenderFrontierSummary("t", s); !strings.Contains(out, "max y=4.0000") {
		t.Errorf("RenderFrontierSummary output %q", out)
	}
	if out := RenderFrontierSummary("t", []Series{{Name: "e"}}); !strings.Contains(out, "empty") {
		t.Errorf("empty series should render: %q", out)
	}
	cells := []Cell{{Row: "r1", Col: "c1", Value: 1.5}, {Row: "r1", Col: "c2", Value: 2.5}}
	out := RenderHeatmap("h", cells)
	if !strings.Contains(out, "r1") || !strings.Contains(out, "1.50") {
		t.Errorf("RenderHeatmap output %q", out)
	}
	bd := []Breakdown{{Label: "l", Stages: []string{"s"}, Shares: []float64{100}}}
	if out := RenderBreakdowns("b", bd); !strings.Contains(out, "100.0%") {
		t.Errorf("RenderBreakdowns output %q", out)
	}
}
