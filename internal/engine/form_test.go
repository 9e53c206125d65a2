package engine

import (
	"math"
	"testing"

	"rago/internal/ragschema"
)

// sliceView is a FormView over parallel enqueue-time / prompt-length
// slices, the way tests stage a waiting window.
type sliceView struct {
	enq     []float64
	prompts []int
}

func (v sliceView) Len() int                 { return len(v.enq) }
func (v sliceView) EnqueuedAt(i int) float64 { return v.enq[i] }
func (v sliceView) PromptTokens(i int) int   { return v.prompts[i] }

func TestParseBatchPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want BatchPolicy
	}{{"", PolicyFIFO}, {"fifo", PolicyFIFO}, {"bucketed", PolicyBucketed}, {"sorted", PolicySorted}} {
		got, err := ParseBatchPolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBatchPolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("String round-trip: %v -> %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseBatchPolicy("lifo"); err == nil {
		t.Error("ParseBatchPolicy accepted an unknown policy")
	}
}

// TestFormerConstantShapeDegeneracy: on constant shapes every policy must
// make the identical decision FIFO makes — same n and a
// selection that is the FIFO prefix — which is what keeps the
// pre-refactor goldens bit-identical under every policy.
func TestFormerConstantShapeDegeneracy(t *testing.T) {
	v := sliceView{
		enq:     []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5},
		prompts: []int{0, 0, 0, 0, 0, 0}, // unshaped = schema constant
	}
	for _, full := range []bool{true, false} {
		now := 1.6
		if !full {
			v2 := v
			v2.enq = v.enq[:3]
			v2.prompts = v.prompts[:3]
			v = v2
			now = 1.0 + 0.21 // head aged past flush
		}
		ref := Former{Policy: PolicyFIFO, Batch: 4, Flush: 0.2, DefaultPrompt: 512}
		wantN, _ := ref.Form(v, now)
		if full && wantN != 4 {
			t.Fatalf("FIFO reference: n=%d", wantN)
		}
		for _, pol := range []BatchPolicy{PolicyBucketed, PolicySorted} {
			f := Former{Policy: pol, Batch: 4, Flush: 0.2, DefaultPrompt: 512}
			n, sel := f.Form(v, now)
			if n != wantN {
				t.Errorf("%v on constant shapes: n=%d, want FIFO's %d", pol, n, wantN)
			}
			for i, p := range sel {
				if p != i {
					t.Errorf("%v selection %v is not the FIFO prefix", pol, sel)
					break
				}
			}
		}
	}
}

// TestFormerRipeness: no policy dispatches an unripe window (short of a
// batch, head younger than Flush).
func TestFormerRipeness(t *testing.T) {
	v := sliceView{enq: []float64{1.0, 1.05}, prompts: []int{300, 4000}}
	for _, pol := range []BatchPolicy{PolicyFIFO, PolicyBucketed, PolicySorted} {
		f := Former{Policy: pol, Batch: 4, Flush: 0.5, DefaultPrompt: 512}
		if n, _ := f.Form(v, 1.2); n != 0 {
			t.Errorf("%v dispatched an unripe window (n=%d)", pol, n)
		}
	}
}

// TestFormerBucketedSelection: with two pow2 buckets in the window, the
// fullest ripe bucket ships — short and long prompts never share a batch
// while both buckets can fill.
func TestFormerBucketedSelection(t *testing.T) {
	v := sliceView{
		enq:     []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5},
		prompts: []int{3000, 400, 500, 450, 2500, 480},
	}
	f := Former{Policy: PolicyBucketed, Batch: 3, Flush: 10, DefaultPrompt: 512}
	n, sel := f.Form(v, 1.6)
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	// The 512-bucket (positions 1,2,3,5) fills first; selection is its
	// FIFO-ordered head run.
	want := []int{1, 2, 3}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("sel = %v, want %v", sel, want)
		}
	}

	// Drain the short bucket: only the two long prompts remain, unripe
	// until the long head ages out, then they ship together without the
	// batch filling.
	v2 := sliceView{enq: []float64{1.0, 1.4}, prompts: []int{3000, 2500}}
	if n, _ := f.Form(v2, 1.5); n != 0 {
		t.Fatalf("long bucket dispatched before its deadline (n=%d)", n)
	}
	n, sel = f.Form(v2, 12.0)
	if n != 2 || sel[0] != 0 || sel[1] != 1 {
		t.Fatalf("deadline flush: n=%d sel=%v, want both long prompts", n, sel)
	}
}

// TestFormerSortedDeadlineRescue: once the head ages past Flush it MUST be
// in the dispatched batch (starvation-freedom), and the batch is the
// sorted run ending at the head so the head sets the pad ceiling.
func TestFormerSortedDeadlineRescue(t *testing.T) {
	// Head is the longest prompt: an unrescued sorter would keep shipping
	// short runs and starve it.
	v := sliceView{
		enq:     []float64{1.0, 2.0, 2.1, 2.2, 2.3},
		prompts: []int{4000, 300, 350, 320, 310},
	}
	f := Former{Policy: PolicySorted, Batch: 2, Flush: 0.5, DefaultPrompt: 512}
	n, sel := f.Form(v, 2.4) // head has waited 1.4 > Flush
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	found := false
	for _, p := range sel {
		if p == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadline rescue failed: head not in sel %v", sel)
	}

	// Without deadline pressure the sorter picks the tightest run: the
	// full window is a batch multiple, and the two closest lengths ship.
	v2 := sliceView{enq: []float64{1.0, 1.1}, prompts: []int{300, 4000}}
	f2 := Former{Policy: PolicySorted, Batch: 2, Flush: 10, DefaultPrompt: 512}
	n, sel = f2.Form(v2, 1.2)
	if n != 2 || len(sel) != 2 {
		t.Fatalf("filled window should ship: n=%d sel=%v", n, sel)
	}
}

// TestChunkPrefill pins the chunk ledger math: member i completes at
// (cumulative chunks)·ChunkLatency, the total is the last member's
// completion, and the padded total is chunks·quantum.
func TestChunkPrefill(t *testing.T) {
	sched := caseISchedule()
	sched.ChunkQuantum = 256
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), sched)
	if plan.ChunkLatency <= 0 {
		t.Fatalf("ChunkLatency = %v, want > 0", plan.ChunkLatency)
	}
	cl := plan.ChunkLatency
	// prompts: 100 -> 1 chunk, 256 -> 1, 257 -> 2, 0 (schema 512) -> 2.
	doneAt, total, tok, pad := plan.ChunkPrefill([]int{100, 256, 257, 0}, nil)
	wantChunks := []int{1, 2, 4, 6}
	for i, c := range wantChunks {
		if got, want := doneAt[i], float64(c)*cl; math.Abs(got-want) > 1e-12 {
			t.Errorf("doneAt[%d] = %v, want %d chunks = %v", i, got, c, want)
		}
	}
	if math.Abs(total-6*cl) > 1e-12 {
		t.Errorf("total = %v, want %v", total, 6*cl)
	}
	if tok != 100+256+257+512 {
		t.Errorf("effective tokens = %d", tok)
	}
	if pad != 6*256 {
		t.Errorf("padded tokens = %d, want %d", pad, 6*256)
	}
	// Scratch is reset internally: reuse must not accumulate.
	doneAt, total, _, _ = plan.ChunkPrefill([]int{256}, doneAt)
	if len(doneAt) != 1 || math.Abs(total-cl) > 1e-12 {
		t.Errorf("scratch reuse leaked state: doneAt=%v total=%v", doneAt, total)
	}
}

// TestDecodeStepForPacing: decode steps slow with the member's own
// context (longer prompts pay their own KV length), and the schema
// constant reproduces the precompiled step exactly.
func TestDecodeStepForPacing(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	schema := plan.Pipe.Schema
	// Unshaped requests ride the precompiled pace bit for bit.
	if got := plan.DecodeStepFor(0, schema.DecodeTokens); got != plan.DecodeStep {
		t.Errorf("unshaped decode step %v != precompiled %v", got, plan.DecodeStep)
	}
	if got, want := plan.GenTimeForShape(0, 300), plan.GenTimeFor(300); got != want {
		t.Errorf("unshaped GenTimeForShape %v != GenTimeFor %v", got, want)
	}
	short := plan.DecodeStepFor(128, schema.DecodeTokens)
	long := plan.DecodeStepFor(4096, schema.DecodeTokens)
	if !(short < long) {
		t.Errorf("decode step not monotone in prompt: 128->%v 4096->%v", short, long)
	}
	if !(long > plan.DecodeStep) {
		t.Errorf("4k-prompt context should pace slower than the schema mean: %v vs %v", long, plan.DecodeStep)
	}
	// GenTimeForShape composes steps·outTok: double the output of a long
	// prompt costs more than double (the KV keeps growing).
	g1 := plan.GenTimeForShape(4096, 256)
	g2 := plan.GenTimeForShape(4096, 512)
	if !(g2 > 2*g1*0.99) {
		t.Errorf("GenTimeForShape(4096, 512)=%v vs 2x(256)=%v", g2, 2*g1)
	}
}

// TestShapeMetricsWithPolicyOrdering: on a heavy-tailed mix, plans
// compiled under the shape-aware policies must price a faster expected
// prefix than FIFO pad-to-max, and chunked prefill must beat unchunked FIFO on expected
// TTFT; PadEfficiency must rank bucketed above FIFO.
func TestShapeMetricsWithPolicyOrdering(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	// A heavy-tailed mix bigger than one batch: mostly short prompts plus
	// a long tail, so FIFO's expected batch max is tail-dominated while
	// the shape-aware policies mostly form all-short batches.
	var shapes []Shape
	for i := 0; i < 56; i++ {
		shapes = append(shapes, Shape{PromptTokens: 200 + (i*37)%300, OutputTokens: 256})
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, Shape{PromptTokens: 2000 + i*250, OutputTokens: 256})
	}
	withPolicy := func(pol BatchPolicy) *Plan {
		sched := caseISchedule()
		sched.FormPolicy = pol
		p, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), sched)
		return p
	}
	fifo := plan.ShapeMetrics(shapes)
	bplan := withPolicy(PolicyBucketed)
	buck := bplan.ShapeMetrics(shapes)
	sorted := withPolicy(PolicySorted).ShapeMetrics(shapes)
	if !(buck.QPS >= fifo.QPS && sorted.QPS >= fifo.QPS) {
		t.Errorf("policy-aware QPS should not trail FIFO: fifo %.2f bucketed %.2f sorted %.2f",
			fifo.QPS, buck.QPS, sorted.QPS)
	}
	if !(buck.QPS > fifo.QPS || sorted.QPS > fifo.QPS) {
		t.Errorf("neither policy priced an improvement on a heavy-tailed mix (fifo %.2f)", fifo.QPS)
	}

	sched := caseISchedule()
	sched.ChunkQuantum = 256
	chunked, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), sched)
	cm := chunked.ShapeMetrics(shapes)
	if !(cm.TTFT < fifo.TTFT) {
		t.Errorf("chunked prefill TTFT %.4f should undercut FIFO pad-to-max %.4f", cm.TTFT, fifo.TTFT)
	}

	if eff := plan.PadEfficiency(shapes); eff <= 0 || eff >= 1 {
		t.Errorf("FIFO pad efficiency %.3f implausible for a heavy mix", eff)
	}
	if fe, be := plan.PadEfficiency(shapes), bplan.PadEfficiency(shapes); !(be > fe) {
		t.Errorf("bucketed pad efficiency %.3f should exceed FIFO's %.3f", be, fe)
	}
}
