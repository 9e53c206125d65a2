package stageperf

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
)

func profilerFor(t *testing.T, s ragschema.Schema) (*Profiler, pipeline.Pipeline) {
	t.Helper()
	p, err := pipeline.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	return New(hw.XPUC, hw.EPYCHost, s), p
}

func stage(t *testing.T, p pipeline.Pipeline, k pipeline.Kind) pipeline.Stage {
	t.Helper()
	i := p.Index(k)
	if i < 0 {
		t.Fatalf("pipeline has no %v stage", k)
	}
	return p.Stages[i]
}

func TestDBForHyperscale(t *testing.T) {
	db := DBFor(ragschema.CaseI(8e9, 1))
	if db.Levels != 3 || db.Fanout != 4096 {
		t.Errorf("hyperscale tree = %d levels fanout %d, want 3/4096", db.Levels, db.Fanout)
	}
	if db.CodeBytes != 96 {
		t.Errorf("PQ code = %v bytes, want 96 (768/8)", db.CodeBytes)
	}
	if db.ScanFraction != 0.001 {
		t.Errorf("scan fraction = %v, want 0.001", db.ScanFraction)
	}
}

func TestDBForLongContext(t *testing.T) {
	db := DBFor(ragschema.CaseII(70e9, 1_000_000))
	if db.Levels != 1 || db.ScanFraction != 1 {
		t.Errorf("long-context DB should be flat brute force")
	}
	if db.CodeBytes != 768*2 {
		t.Errorf("long-context codes = %v bytes, want FP16 768-dim", db.CodeBytes)
	}
}

func TestMinRetrievalServers(t *testing.T) {
	p, _ := profilerFor(t, ragschema.CaseI(8e9, 1))
	if got := p.MinRetrievalServers(); got != 16 {
		t.Errorf("hyperscale min servers = %d, want 16", got)
	}
	p2, _ := profilerFor(t, ragschema.CaseII(70e9, 100_000))
	if got := p2.MinRetrievalServers(); got != 1 {
		t.Errorf("long-context min servers = %d, want 1", got)
	}
}

func TestEvalPrefixAndDecode(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseI(8e9, 1))
	pre := prof.Eval(stage(t, pl, pipeline.KindPrefix), 1, 1)
	if !pre.OK || pre.Latency <= 0 || pre.QPS <= 0 {
		t.Fatalf("prefix point = %+v", pre)
	}
	if pre.StepLatency != 0 {
		t.Errorf("prefix has no step latency, got %v", pre.StepLatency)
	}
	dec := prof.Eval(stage(t, pl, pipeline.KindDecode), 1, 64)
	if !dec.OK || dec.StepLatency <= 0 {
		t.Fatalf("decode point = %+v", dec)
	}
	// Full generation = 256 steps.
	if math.Abs(dec.Latency-256*dec.StepLatency) > 1e-9 {
		t.Errorf("decode latency %v != 256 x step %v", dec.Latency, dec.StepLatency)
	}
	// The paper's tuned baseline observes prefix:decode time ratios of
	// roughly 1.2-1.4:1 at serving batch sizes (§7.1); check that our
	// calibration lands in a compatible band at decode batch 128.
	dec128 := prof.Eval(stage(t, pl, pipeline.KindDecode), 1, 128)
	if !dec128.OK {
		t.Fatalf("decode batch 128 infeasible")
	}
	ratio := (1 / pre.QPS) / (1 / dec128.QPS)
	if ratio < 0.8 || ratio > 2.0 {
		t.Errorf("prefix:decode per-request cost ratio = %.2f, want in [0.8, 2.0]", ratio)
	}
}

func TestEvalRetrievalMatchesSystem(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseI(8e9, 1))
	r := prof.Eval(stage(t, pl, pipeline.KindRetrieval), 16, 32)
	if !r.OK {
		t.Fatalf("retrieval point not OK")
	}
	if r.Latency < 0.015 || r.Latency > 0.050 {
		t.Errorf("retrieval batch latency = %v, want tens of ms", r.Latency)
	}
	// 8 servers cannot hold the corpus.
	if bad := prof.Eval(stage(t, pl, pipeline.KindRetrieval), 8, 32); bad.OK {
		t.Errorf("8-server retrieval should be infeasible")
	}
}

func TestEvalEncode(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseII(70e9, 1_000_000))
	enc := prof.Eval(stage(t, pl, pipeline.KindEncode), 1, 1)
	if !enc.OK {
		t.Fatalf("encode point not OK")
	}
	// ~1M tokens on one chip at ~1M tokens/s -> around a second.
	if enc.Latency < 0.3 || enc.Latency > 3.0 {
		t.Errorf("1M-token encode latency = %v s, want ~1s", enc.Latency)
	}
	// Encoder throughput is batch-independent (chunk supply abundant).
	enc4 := prof.Eval(stage(t, pl, pipeline.KindEncode), 1, 4)
	if math.Abs(enc4.QPS-enc.QPS)/enc.QPS > 0.05 {
		t.Errorf("encode QPS changed with request batch: %v vs %v", enc4.QPS, enc.QPS)
	}
	// More chips, more throughput.
	enc8 := prof.Eval(stage(t, pl, pipeline.KindEncode), 8, 1)
	if enc8.QPS < enc.QPS*4 {
		t.Errorf("8-chip encode QPS %v not ~8x 1-chip %v", enc8.QPS, enc.QPS)
	}
}

func TestEvalRerank(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseIV(70e9))
	rr := prof.Eval(stage(t, pl, pipeline.KindRerank), 1, 4)
	if !rr.OK {
		t.Fatalf("rerank point not OK")
	}
	// Reranking 16 x 100-token passages with a 120M encoder is fast
	// (§5.4: negligible).
	if rr.Latency > 0.050 {
		t.Errorf("rerank latency = %v, want < 50ms", rr.Latency)
	}
}

func TestEvalRewriteDecodeSlowerThanRewritePrefix(t *testing.T) {
	// §5.4: the rewriter's autoregressive decode dominates its cost.
	prof, pl := profilerFor(t, ragschema.CaseIV(70e9))
	rp := prof.Eval(stage(t, pl, pipeline.KindRewritePrefix), 1, 4)
	rd := prof.Eval(stage(t, pl, pipeline.KindRewriteDecode), 1, 4)
	if !rp.OK || !rd.OK {
		t.Fatalf("rewrite points not OK: %+v %+v", rp, rd)
	}
	if rd.Latency < 5*rp.Latency {
		t.Errorf("rewrite decode (%v) should dwarf rewrite prefix (%v)", rd.Latency, rp.Latency)
	}
}

func TestEvalInfeasibleAndDegenerate(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseI(405e9, 1))
	// 405B prefix cannot fit on one chip.
	if pt := prof.Eval(stage(t, pl, pipeline.KindPrefix), 1, 1); pt.OK {
		t.Errorf("405B on one chip should be infeasible")
	}
	if pt := prof.Eval(stage(t, pl, pipeline.KindPrefix), 0, 1); pt.OK {
		t.Errorf("zero chips should be infeasible")
	}
	if pt := prof.Eval(stage(t, pl, pipeline.KindPrefix), 8, 0); pt.OK {
		t.Errorf("zero batch should be infeasible")
	}
}

func TestEvalMemoization(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseI(8e9, 1))
	st := stage(t, pl, pipeline.KindPrefix)
	a := prof.Eval(st, 2, 8)
	b := prof.Eval(st, 2, 8)
	if a != b {
		t.Errorf("memoized evaluation differs: %+v vs %+v", a, b)
	}
}

func TestTransferLatencyNegligible(t *testing.T) {
	prof, _ := profilerFor(t, ragschema.CaseI(8e9, 1))
	tt := prof.RetrievalTransferLatency()
	if tt <= 0 || tt > 1e-4 {
		t.Errorf("transfer latency = %v, want positive and < 0.1ms", tt)
	}
}

func TestRetrievalQPSIndependentOfGenModel(t *testing.T) {
	// Retrieval cost depends only on the database and query count, not
	// on which LLM consumes the results.
	p8, pl8 := profilerFor(t, ragschema.CaseI(8e9, 1))
	p70, pl70 := profilerFor(t, ragschema.CaseI(70e9, 1))
	a := p8.Eval(stage(t, pl8, pipeline.KindRetrieval), 16, 64)
	b := p70.Eval(stage(t, pl70, pipeline.KindRetrieval), 16, 64)
	if a != b {
		t.Errorf("retrieval point differs across LLM sizes: %+v vs %+v", a, b)
	}
}

// TestMemoConsistency: the memos must be pure memoization. EvalR,
// Candidates and Envelope must answer bit for bit as a NoMemo profiler
// does, on repeat queries and from 8 goroutines sharing one profiler,
// for every stage kind of the Case I-V pipelines, shaped prompts and
// contexts, knobbed retrieval on a sharded tier, and invalid operating
// points. Two models that share a Name must never share an entry.
func TestMemoConsistency(t *testing.T) {
	type ask struct {
		st           pipeline.Stage
		chips, batch int
	}
	type answer struct {
		pts   [5]Point // EvalR at replicas 0..4 (0 and 3 are invalid at these chips)
		cands []Point
		env   Envelope // Envelope with batch as the bound
	}
	answerOf := func(p *Profiler, a ask) answer {
		var ans answer
		for r := range ans.pts {
			ans.pts[r] = p.EvalR(a.st, a.chips, a.batch, r)
		}
		ans.cands = p.Candidates(a.st, a.chips, a.batch)
		ans.env = p.Envelope(a.st, a.chips, a.batch)
		return ans
	}
	same := func(a, b answer) bool {
		return a.pts == b.pts && slices.Equal(a.cands, b.cands) && a.env == b.env
	}

	for _, schema := range []ragschema.Schema{
		ragschema.CaseI(8e9, 1), ragschema.CaseII(70e9, 100_000), ragschema.CaseIII(8e9, 4),
		ragschema.CaseIV(8e9), ragschema.CaseV(8e9, 2),
	} {
		pipe, err := pipeline.Build(schema)
		if err != nil {
			t.Fatal(err)
		}
		var stages []pipeline.Stage
		for _, st := range pipe.Stages {
			twin := st // same Name, another model
			twin.Model.Layers++
			stages = append(stages, st, twin, ShapedStage(st, 2*st.SeqLen+1),
				ShapedDecodeStage(st, 3*st.CtxLen+7), st.Tuned(64, 2), st.Tuned(8, 2), st.Tuned(8, 0))
		}
		var asks []ask
		for _, st := range stages {
			for _, chips := range []int{0, 4, 16} {
				for _, batch := range []int{0, 1, 8} {
					asks = append(asks, ask{st, chips, batch})
				}
			}
		}
		cached := New(hw.XPUC, hw.EPYCHost, schema)
		cold := New(hw.XPUC, hw.EPYCHost, schema)
		cached.Shards, cold.Shards, cold.NoMemo = 4, 4, true
		want := make([]answer, len(asks))
		for i, a := range asks {
			want[i] = answerOf(cold, a)
		}

		// Each goroutine walks every ask from its own offset, so fills and
		// hits interleave on the shared memos and the interned models.
		var wg sync.WaitGroup
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range asks {
					i := (k + g*len(asks)/8) % len(asks)
					if got := answerOf(cached, asks[i]); !same(got, want[i]) {
						t.Errorf("%s %v at (%d chips, batch %d): memoized %+v, NoMemo %+v",
							schema.Name, asks[i].st.Kind, asks[i].chips, asks[i].batch, got, want[i])
					}
				}
			}()
		}
		wg.Wait()

		for i, a := range asks {
			// Candidates returns the memo's own slice (read-only by
			// contract): a hit aliases it.
			x, y := cached.Candidates(a.st, a.chips, a.batch), cached.Candidates(a.st, a.chips, a.batch)
			if len(x) > 0 && &x[0] != &y[0] {
				t.Fatalf("%s Candidates(%v,%d,%d) re-allocated on a memo hit", schema.Name, a.st.Kind, a.chips, a.batch)
			}
			if got := answerOf(cached, a); !same(got, want[i]) {
				t.Fatalf("%s %v at (%d chips, batch %d): memo hit %+v, NoMemo %+v",
					schema.Name, a.st.Kind, a.chips, a.batch, got, want[i])
			}
		}
	}

	// Same-name row: the generator with one layer more shares its Name and
	// must price differently through one profiler.
	prof, pl := profilerFor(t, ragschema.CaseI(8e9, 1))
	gen := stage(t, pl, pipeline.KindPrefix)
	twin := gen
	twin.Model.Layers++
	if a, b := prof.Eval(gen, 8, 4), prof.Eval(twin, 8, 4); !a.OK || !b.OK || a == b {
		t.Errorf("%s with %d and %d layers priced %+v and %+v: the memo confused them",
			gen.Model.Name, gen.Model.Layers, twin.Model.Layers, a, b)
	}
}

// TestShapedStage: per-request prompt lengths reshape prefix-type stages
// only, the profiler prices longer shapes strictly higher, and the zero
// shape is the identity (the constant-shape regression guard).
func TestShapedStage(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseI(8e9, 1))
	pre := stage(t, pl, pipeline.KindPrefix)

	if got := ShapedStage(pre, 0); got != pre {
		t.Errorf("zero shape must be the identity, got %+v", got)
	}
	long := ShapedStage(pre, 4*pre.SeqLen)
	if long.SeqLen != 4*pre.SeqLen || long.Kind != pre.Kind || long.Items != pre.Items {
		t.Fatalf("shaped prefix = %+v", long)
	}
	base := prof.Eval(pre, 8, 4)
	shaped := prof.Eval(long, 8, 4)
	if !base.OK || !shaped.OK {
		t.Fatalf("points infeasible: %+v / %+v", base, shaped)
	}
	if shaped.Latency <= base.Latency {
		t.Errorf("4x prompt latency %v should exceed baseline %v", shaped.Latency, base.Latency)
	}

	// Decode and retrieval are shape-free here: decode slots are held for
	// a request's own output length at the plan's precompiled per-token
	// pace instead of re-profiling the stage.
	dec := stage(t, pl, pipeline.KindDecode)
	if got := ShapedStage(dec, 2048); got != dec {
		t.Errorf("decode must ignore prompt shapes, got %+v", got)
	}
	retr := stage(t, pl, pipeline.KindRetrieval)
	if got := ShapedStage(retr, 9999); got != retr {
		t.Errorf("retrieval must ignore shapes, got %+v", got)
	}
}

// TestEnvelope cross-checks the memoized roofline envelope against a
// direct enumeration of Candidates over every power-of-two batch: the
// envelope must be exactly the pointwise optimum (no operating point beats
// it, some operating point attains each axis), repeated queries must be
// identical, and a memo-less profiler must agree.
func TestEnvelope(t *testing.T) {
	schema := ragschema.CaseIV(8e9)
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	cached := New(hw.XPUC, hw.EPYCHost, schema)
	cold := New(hw.XPUC, hw.EPYCHost, schema)
	cold.NoMemo = true
	for _, st := range pipe.Stages {
		for _, chips := range []int{4, 16} {
			for _, maxBatch := range []int{1, 16} {
				env := cached.Envelope(st, chips, maxBatch)

				// Brute-force the optimum from the candidate points.
				ref := Envelope{MinLatency: math.Inf(1)}
				for b := 1; b <= maxBatch; b <<= 1 {
					for _, pt := range cached.Candidates(st, chips, b) {
						ref.OK = true
						ref.MinLatency = math.Min(ref.MinLatency, pt.Latency)
						ref.MaxQPS = math.Max(ref.MaxQPS, pt.QPS)
					}
				}
				if env != ref {
					t.Fatalf("Envelope(%v,%d,%d) = %+v, enumeration says %+v",
						st.Kind, chips, maxBatch, env, ref)
				}
				if env.OK && (math.IsInf(env.MinLatency, 0) || env.MaxQPS <= 0) {
					t.Fatalf("Envelope(%v,%d,%d) feasible but degenerate: %+v",
						st.Kind, chips, maxBatch, env)
				}
				if again := cached.Envelope(st, chips, maxBatch); again != env {
					t.Fatalf("Envelope(%v,%d,%d) memo hit diverged: %+v vs %+v",
						st.Kind, chips, maxBatch, again, env)
				}
				if c := cold.Envelope(st, chips, maxBatch); c != env {
					t.Fatalf("Envelope(%v,%d,%d) NoMemo diverged: %+v vs %+v",
						st.Kind, chips, maxBatch, c, env)
				}
			}
		}
	}
}

// TestEnvelopeBoundsCandidates pins the admissibility property the
// branch-and-bound relies on: every feasible operating point at any batch
// within the bound is weakly inside the envelope.
func TestEnvelopeBoundsCandidates(t *testing.T) {
	prof, pl := profilerFor(t, ragschema.CaseI(8e9, 1))
	for _, k := range []pipeline.Kind{pipeline.KindPrefix, pipeline.KindDecode, pipeline.KindRetrieval} {
		st := stage(t, pl, k)
		chips := 16
		env := prof.Envelope(st, chips, 64)
		if !env.OK {
			t.Fatalf("%v envelope infeasible at 16 chips", k)
		}
		for b := 1; b <= 64; b <<= 1 {
			for _, pt := range prof.Candidates(st, chips, b) {
				if pt.Latency < env.MinLatency || pt.QPS > env.MaxQPS {
					t.Fatalf("%v point %+v escapes envelope %+v", k, pt, env)
				}
			}
		}
	}
}
