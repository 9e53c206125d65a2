package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/retrieval"
	"rago/internal/sim"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// shardedCaseISetup is caseISetup with the retrieval tier sharded for
// real: a 4-shard x 2-replica index over clustered vectors, the profiler
// carrying the shard count and a recall surface calibrated against exact
// ground truth, and the schedule running tuned knobs (nprobe 16, fanout
// 2) so both the analytic model and the live scatter-gather exercise the
// non-default path.
func shardedCaseISetup(t testing.TB) (*engine.Plan, *vectordb.Sharded, Options) {
	t.Helper()
	pipe, prof, sched := caseISetup(t)
	sh, mod, dim := buildShardedSubstrate(t)
	prof.Shards = sh.Shards()
	prof.RecallMod = mod
	sched.NProbe = 16
	sched.ShardFanout = 2
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	return plan, sh, Options{Sharded: sh, SearchK: 10, QueryDim: dim, QuerySeed: 3}
}

// buildShardedSubstrate builds the 4-shard x 2-replica IVF-PQ index over
// clustered vectors plus its recall@10 surface calibrated against exact
// ground truth on an in-distribution query sample.
func buildShardedSubstrate(t testing.TB) (*vectordb.Sharded, *retrieval.RecallModel, int) {
	t.Helper()
	const dim = 16
	data := vectordb.GenClustered(4000, dim, 32, 0.4, 3)
	ix, err := vectordb.BuildIVFPQ(data, 32, dim/2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := vectordb.NewSharded(ix, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	flat := vectordb.NewFlat(dim)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 32)
	rng := rand.New(rand.NewSource(11))
	for i := range queries {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32() * 10
		}
		queries[i] = v
	}
	nps, fos := []int{4, 16, 32}, []int{1, 2, 4}
	grid, err := sh.CalibrateRecall(flat, queries, 10, nps, fos)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := retrieval.NewRecallModel(nps, fos, grid)
	if err != nil {
		t.Fatal(err)
	}
	return sh, mod, dim
}

// BenchmarkServeShardedCaseI is the sharded-retrieval trajectory point CI
// uploads (BENCH_retrieval.json): a saturating Case I replay against the
// real 4-shard x 2-replica scatter-gather index at three fanout operating
// points, reporting sustained QPS, p99 TTFT, and the operating point's
// calibrated recall@10 — the latency/quality trade the recall axis puts
// on the frontier, measured end to end. The recall must rise strictly with
// the fanout.
func BenchmarkServeShardedCaseI(b *testing.B) {
	pipe, prof, sched := caseISetup(b)
	sh, mod, dim := buildShardedSubstrate(b)
	prof.Shards = sh.Shards()
	prof.RecallMod = mod
	sched.NProbe = 16
	fanouts := []int{1, 2, 4}
	plans := make([]*engine.Plan, len(fanouts))
	for i, fanout := range fanouts {
		s := sched
		s.ShardFanout = fanout
		plan, err := engine.Compile(pipe, s, prof)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 && !(plan.Metrics.Recall > plans[i-1].Metrics.Recall) {
			b.Fatalf("recall@10 %.4f at fanout %d, want above %.4f at fanout %d",
				plan.Metrics.Recall, fanout, plans[i-1].Metrics.Recall, fanouts[i-1])
		}
		plans[i] = plan
	}
	for i, fanout := range fanouts {
		plan := plans[i]
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			const n = 4000
			reqs, err := trace.Poisson(n, 1.5*plan.Metrics.QPS, 42)
			if err != nil {
				b.Fatal(err)
			}
			speedup := (float64(n) / plan.Metrics.QPS) / 4.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, err := NewServer(plan, Options{
					Speedup: speedup, Sharded: sh, SearchK: 10, QueryDim: dim, QuerySeed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := srv.Serve(reqs)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Completed != n {
					b.Fatalf("completed %d of %d", rep.Completed, n)
				}
				b.ReportMetric(rep.SustainedQPS, "sustainedQPS")
				b.ReportMetric(rep.TTFT.P99, "p99TTFT_s")
				b.ReportMetric(plan.Metrics.Recall, "recallAt10")
			}
		})
	}
}

// TestRuntimeShardedThreeWayCrossCheck is the sharded tentpole's
// acceptance gate: the live runtime executing real scatter-gather
// retrieval (unpaced) must equal the discrete-event simulator, both must
// agree with the analytic model pricing the tuned knobs on saturation QPS
// within 15%, and the plan must carry the calibrated recall of its
// operating point. TestWallDriverMatchesHeapDriver's caseI-sharded-healthy
// row pins the paced run to the simulator.
func TestRuntimeShardedThreeWayCrossCheck(t *testing.T) {
	plan, _, opts := shardedCaseISetup(t)
	want := plan.Metrics
	if want.Recall <= 0 || want.Recall > 1 {
		t.Fatalf("sharded plan carries recall %v, want a calibrated value in (0, 1]", want.Recall)
	}
	const n = 4000
	reqs, err := trace.Poisson(n, 1.5*want.QPS, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speedup = unpaced
	srv, err := NewServer(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	if rep.Searches == 0 || rep.SearchQueries != n {
		t.Errorf("sharded substrate saw %d batches / %d queries, want all %d queries", rep.Searches, rep.SearchQueries, n)
	}
	if rep.ShardFallbacks != 0 || rep.ShardLost != 0 {
		t.Errorf("healthy replicas reported %d fallbacks / %d lost shards", rep.ShardFallbacks, rep.ShardLost)
	}
	ratio := rep.SustainedQPS / want.QPS
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("live QPS %.2f vs analytic %.2f (ratio %.2f), want within 15%%", rep.SustainedQPS, want.QPS, ratio)
	}

	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	matchesSim(t, "sharded Case I", &rep.Report, res)
	if r := res.QPS / want.QPS; r < 0.85 || r > 1.15 {
		t.Errorf("event-sim QPS %.2f vs analytic %.2f (ratio %.2f), want within 15%%", res.QPS, want.QPS, r)
	}
}

// TestRuntimeShardedDegradedReplica takes one replica of one shard down
// mid-fleet: every request must still complete (the scatter falls back to
// the healthy replica) and the degradation must be visible in the report.
func TestRuntimeShardedDegradedReplica(t *testing.T) {
	plan, sh, opts := shardedCaseISetup(t)
	if err := sh.SetReplicaHealth(0, 0, false); err != nil {
		t.Fatal(err)
	}
	const n = 600
	reqs, err := trace.Poisson(n, plan.Metrics.QPS, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speedup = unpaced
	srv, err := NewServer(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d with a replica down", rep.Completed, n)
	}
	if rep.ShardFallbacks == 0 {
		t.Errorf("a downed replica should surface as fallbacks in the report")
	}
	if rep.ShardLost != 0 {
		t.Errorf("no shard lost every replica, yet report counts %d lost merges", rep.ShardLost)
	}
}

// TestShardedObsEventParityServeVsSim: the live sharded runtime and the
// simulator must tell the same scatter-gather story on the bus — every
// retrieval dispatch emits one shard-scatter and one shard-gather
// carrying the schedule's effective fanout, and neither side emits a
// fallback with all replicas healthy.
func TestShardedObsEventParityServeVsSim(t *testing.T) {
	plan, _, opts := shardedCaseISetup(t)
	const n = 400
	reqs, err := trace.Poisson(n, 1.2*plan.Metrics.QPS, 21)
	if err != nil {
		t.Fatal(err)
	}
	opts.Speedup = unpaced

	type tally struct{ scatter, gather, fallback int }
	count := func(events <-chan obs.Event, side string) tally {
		var c tally
		for ev := range events {
			switch ev.Kind {
			case obs.KindShardScatter:
				c.scatter++
			case obs.KindShardGather:
				c.gather++
			case obs.KindShardFallback:
				c.fallback++
			default:
				continue
			}
			if ev.Kind != obs.KindShardFallback && ev.N != plan.EffectiveFanout() {
				t.Errorf("%s %v event carries fanout %d, want effective fanout %d", side, ev.Kind, ev.N, plan.EffectiveFanout())
			}
		}
		return c
	}

	bus := obs.NewBus()
	sub := bus.Subscribe(1 << 15)
	opts.Bus = bus
	srv, err := NewServer(plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(reqs); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	live := count(sub.Events(), "live")

	simBus := obs.NewBus()
	simSub := simBus.Subscribe(1 << 15)
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	des.Bus = simBus
	if _, err := des.Run(reqs, 0.05); err != nil {
		t.Fatal(err)
	}
	simSub.Close()
	simulated := count(simSub.Events(), "sim")

	for side, c := range map[string]tally{"live": live, "sim": simulated} {
		if c.scatter == 0 {
			t.Errorf("%s emitted no shard-scatter events on a sharded plan", side)
		}
		if c.scatter != c.gather {
			t.Errorf("%s scatter/gather mismatch: %d vs %d", side, c.scatter, c.gather)
		}
		if c.fallback != 0 {
			t.Errorf("%s emitted %d fallback events with all replicas healthy", side, c.fallback)
		}
	}
}
