package serve

import (
	"math"
	"testing"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/sim"
	"rago/internal/trace"
)

// hotTrace builds a session-affine Zipfian Case I trace: 5 chunks per
// request (the schema's NeighborsPerQuery) of 100 tokens each, hot
// documents recurring across 64 sessions.
func hotTrace(t testing.TB, n int, seed int64) []trace.Request {
	t.Helper()
	base, err := trace.Poisson(n, 1, seed) // arrivals rescaled by callers
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.WithSessions(base, 64, 0.7, 2000, 5, 1.4, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestRuntimeCachedCrossCheck is the acceptance check for the cache tier:
// on a hot Zipfian session trace, the live runtime with a real cache at
// batch formation must agree on throughput with the credit-replay
// cache-aware analytic within 15% and its measured hit rate must sit
// within 5 points of the trace's analytic reuse skew — and it must equal
// the discrete-event simulator running the identical cache state machine
// on its own instance, hit rate included.
func TestRuntimeCachedCrossCheck(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	sched.Groups[0].Chips = 2 // prefill-bound: credits move QPS
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}

	const n = 5000
	reqs := hotTrace(t, n, 42)
	cfg := cache.Config{PrefixTokens: 40_000, ChunkTokens: pipe.Schema.ChunkTokens}

	// Analytic leg: replay the trace's chunk tags through a fresh cache
	// for per-request prefix credits, then recost the plan with them.
	credits, replayStats, err := cache.ReplayCredits(cfg, reqs, pipe.Schema.PrefixTokens)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.CachedMetrics(nil, credits)
	if !(want.QPS > plan.Metrics.QPS*1.2) {
		t.Fatalf("hot trace should lift cache-aware analytic QPS well above uncached: %.2f vs %.2f",
			want.QPS, plan.Metrics.QPS)
	}

	// Overdrive at 1.5x the cache-aware capacity (which exceeds the
	// uncached capacity — only a working cache can keep up).
	for i := range reqs {
		reqs[i].Arrival /= 1.5 * want.QPS
	}

	rtCache, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, Cache: rtCache})
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
	if rep.Cache == nil {
		t.Fatal("cached replay reported no cache stats")
	}

	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	des.Cache, err = cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache == nil {
		t.Fatal("cached sim reported no cache stats")
	}

	within(t, "cached runtime QPS vs cache-aware analytic", rep.SustainedQPS, want.QPS, 0.15)
	matchesSim(t, "cached Case I", &rep.Report, res)

	// Hit rates: runtime = sim ≈ the trace's intrinsic reuse skew.
	hr, ha := rep.Cache.HitRate, replayStats.HitRate
	if ha < 0.5 {
		t.Fatalf("session trace analytic hit rate %.2f implausibly low", ha)
	}
	if *rep.Cache != *res.Cache {
		t.Errorf("cache stats diverge: runtime %+v vs sim %+v", *rep.Cache, *res.Cache)
	}
	if math.Abs(hr-ha) > 0.05 {
		t.Errorf("runtime hit rate %.3f vs analytic replay %.3f (want within 5 points)", hr, ha)
	}
	if rep.Cache.SavedTokens <= 0 || res.Cache.SavedTokens <= 0 {
		t.Errorf("saved-prefill accounting empty: runtime %d, sim %d",
			rep.Cache.SavedTokens, res.Cache.SavedTokens)
	}
	// Both executors processed every tagged request through their tier.
	if rep.Cache.Requests != n || res.Cache.Requests != n {
		t.Errorf("cache lookups: runtime %d, sim %d; want %d each", rep.Cache.Requests, res.Cache.Requests, n)
	}
}

// TestCacheInertWhenDisabled: a tagged trace served with no cache must be
// indistinguishable from an untagged one. The discrete-event sim is
// deterministic, so equality is exact — this is the guarantee that chunk
// tags alone (cache off) change nothing.
func TestCacheInertWhenDisabled(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	tagged := hotTrace(t, n, 7)
	for i := range tagged {
		tagged[i].Arrival /= 1.5 * plan.Metrics.QPS
	}
	untagged := make([]trace.Request, n)
	for i, r := range tagged {
		r.ChunkIDs = nil
		untagged[i] = r
	}

	desA, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	resTagged, err := desA.Run(tagged, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	desB, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := desB.Run(untagged, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if resTagged.QPS != resPlain.QPS || resTagged.MeanTTFT != resPlain.MeanTTFT ||
		resTagged.MeanLatency != resPlain.MeanLatency {
		t.Errorf("tags with no cache drifted the sim:\n tagged   %+v\n untagged %+v", resTagged, resPlain)
	}
	if resTagged.Cache != nil {
		t.Errorf("cache-less sim grew cache stats: %+v", resTagged.Cache)
	}

	// The live runtime on the tagged trace with a nil cache keeps the
	// historical report surface: no cache stats, no shape artifacts.
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Serve(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	if rep.Cache != nil {
		t.Errorf("cache-less runtime grew cache stats: %+v", rep.Cache)
	}
	if len(rep.Shapes) != 0 || rep.PadWaste != 0 {
		t.Errorf("tagged cache-less replay grew shape artifacts: shapes %+v pad %.4f", rep.Shapes, rep.PadWaste)
	}
}

// TestAnswerTierShortCircuit: with session affinity 1 and one session,
// every request after the first carries the identical retrieved context
// and shape, so the exact-match answer tier short-circuits most of the
// trace in both executors — and every request still completes.
func TestAnswerTierShortCircuit(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	base, err := trace.Poisson(n, plan.Metrics.QPS, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.WithSessions(base, 1, 1.0, 2000, 5, 1.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{AnswerEntries: 16}

	rtCache, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serverFor(pipe, prof, sched, Options{Speedup: unpaced, Cache: rtCache})
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
	if rep.Cache == nil || rep.Cache.AnswerHits == 0 {
		t.Fatalf("answer tier never hit: %+v", rep.Cache)
	}

	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	des.Cache, err = cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("sim completed %d of %d", res.Completed, n)
	}
	if res.Cache == nil || res.Cache.AnswerHits == 0 {
		t.Fatalf("sim answer tier never hit: %+v", res.Cache)
	}
	// Short-circuited requests skip decode entirely, and both executors
	// short-circuit the same requests.
	if rep.Cache.AnswerHits != res.Cache.AnswerHits {
		t.Errorf("answer hits diverge: runtime %d vs sim %d over %d requests",
			rep.Cache.AnswerHits, res.Cache.AnswerHits, n)
	}
}
