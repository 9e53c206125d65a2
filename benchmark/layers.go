package main

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"time"

	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/obs"
	"rago/internal/perf"
	"rago/internal/serve"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/trace"
	"rago/internal/vectordb"
	"rago/internal/xpusim"
)

// zero emits 0 for layer metrics of a layer this workload does not use: the
// "predicted no change" cells of the README's layer table, made explicit.
func (r *run) zero(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed returns f's wall seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// layers fills the per-layer ledger of a traced run. Everything is measured
// from outside, through the layers' exported functions.
func (r *run) layers() error {
	for _, g := range []struct {
		name string
		f    func() error
	}{
		{"vectordb", r.layerVectordb}, {"cache", r.layerCache}, {"engine", r.layerEngine},
		{"stageperf", r.layerStageperf}, {"core", r.layerCore}, {"trace", r.layerTrace},
		{"sim", r.layerSim}, {"serve", r.layerServe}, {"obs", r.layerObs}, {"control", r.layerControl},
	} {
		var err error
		r.rec.do("layers."+g.name, func() { err = g.f() })
		if err != nil {
			return err
		}
	}
	// Tracing overhead: the simulator and the unpaced dispatch with a bus and
	// an obs.Tracer attached, over the same two runs without (base).
	r.set("bench.tracing_overhead_x", (r.simTracedWall+r.tracedDispatchWall)/(r.simPlainWall+r.host("dispatch")))
	for _, p := range []string{"plan", "sim", "live", "dispatch", "search"} {
		if r.phaseWall[p] > 0.2 { // shorter phases are mostly fixed bookkeeping
			cov := r.rec.coverage("phase." + p)
			r.check("spans.cover-"+p, cov >= 0.9, "child spans cover %.2f of the %s phase", cov, p)
		}
	}
	return nil
}

func (r *run) layerVectordb() error {
	w := r.w
	if !w.sc.index {
		r.zero("vectordb.build_s", "vectordb.kmeans_s", "vectordb.calibrate_s", "vectordb.search_ns",
			"vectordb.search_ns_per_vec", "vectordb.search_allocs", "vectordb.dist_table_ns",
			"vectordb.adc_ns_per_code", "vectordb.shard_search_ns", "vectordb.shard_vs_single_x",
			"vectordb.batch_parallel_x", "vectordb.flat_search_ns_per_vec", "vectordb.vectors_scanned",
			"vectordb.recall_fanout1", "vectordb.recall_fanout_all", "vectordb.search_qps", "vectordb.recall_at_10")
		return nil
	}
	r.set("vectordb.build_s", w.steps["vectordb.BuildIVFPQ"])
	r.set("vectordb.calibrate_s", w.steps["vectordb.CalibrateRecall"])
	var err error
	r.set("vectordb.kmeans_s", timed(func() {
		r.rec.do("vectordb.KMeans", func() { _, err = vectordb.KMeans(w.data, corpusNList, 12, corpusSeed) })
	}))
	if err != nil {
		return err
	}
	nprobe, i := w.sc.nprobe, 0
	next := func() []float32 { i++; return w.queries[i%len(w.queries)] }
	searchNS, allocs := perCall(r.micro, func() { _, err = w.ix.Search(next(), searchK, nprobe) })
	if err != nil {
		return err
	}
	r.set("vectordb.search_ns", searchNS)
	r.set("vectordb.search_allocs", allocs)
	r.set("vectordb.search_ns_per_vec", searchNS/w.ix.VectorsScanned(nprobe))

	sh := w.sh
	if sh == nil {
		if sh, err = vectordb.NewSharded(w.ix, 4, 2); err != nil {
			return err
		}
	}
	r.set("vectordb.vectors_scanned", sh.VectorsScanned(nprobe, w.sc.fanout))
	shardNS, _ := perCall(r.micro, func() { _, err = sh.Search(next(), searchK, nprobe, 0, nil) })
	if err != nil {
		return err
	}
	r.set("vectordb.shard_search_ns", shardNS)
	r.set("vectordb.shard_vs_single_x", shardNS/searchNS) // base: single-index Search
	batchNS, _ := perCall(r.micro, func() { _, err = w.ix.SearchBatch(w.queries, searchK, nprobe) })
	if err != nil {
		return err
	}
	r.set("vectordb.batch_parallel_x", searchNS*float64(len(w.queries))/batchNS) // base: serial Search
	flatNS, _ := perCall(r.micro, func() { _, err = w.flat.Search(next(), searchK) })
	if err != nil {
		return err
	}
	r.set("vectordb.flat_search_ns_per_vec", flatNS/float64(w.flat.Len()))
	for _, f := range []struct {
		name   string
		fanout int
	}{{"vectordb.recall_fanout1", 1}, {"vectordb.recall_fanout_all", 0}} {
		got, err := sh.SearchBatch(w.queries, searchK, nprobe, f.fanout, nil)
		if err != nil {
			return err
		}
		r.set(f.name, meanRecall(w.truth, got))
	}

	// The index keeps its quantizer private, so the table and ADC kernels
	// are timed on a quantizer of the same shape trained on a sample.
	var pq *vectordb.PQ
	r.rec.do("vectordb.TrainPQ", func() { pq, err = vectordb.TrainPQ(w.data[:1000], corpusDim/2, corpusSeed) })
	if err != nil {
		return err
	}
	var table [][]float32
	ns, _ := perCall(r.micro, func() { table, err = pq.DistTable(next()) })
	if err != nil {
		return err
	}
	r.set("vectordb.dist_table_ns", ns)
	codes := make([][]byte, 256)
	for i := range codes {
		if codes[i], err = pq.Encode(w.data[i]); err != nil {
			return err
		}
	}
	var sink float32
	ns, _ = perCall(r.micro, func() {
		for _, c := range codes {
			sink += pq.ADC(table, c)
		}
	})
	_ = sink
	r.set("vectordb.adc_ns_per_code", ns/float64(len(codes)))
	return nil
}

func (r *run) layerCache() error {
	w := r.w
	if !w.sc.reuse {
		r.zero("cache.access_ns", "cache.answer_lookup_ns", "cache.answer_store_ns", "cache.replay_credits_s",
			"cache.hit_rate", "cache.saved_tokens", "cache.evictions", "cache.answer_hits", "cache.live_vs_sim_hit_gap")
		return nil
	}
	c, err := w.newCache()
	if err != nil {
		return err
	}
	i := 0
	next := func() trace.Request { i++; return w.traceLo[i%len(w.traceLo)] }
	ns, _ := perCall(r.micro, func() { q := next(); c.Access(q.ChunkIDs, q.PromptTokens) })
	r.set("cache.access_ns", ns)
	ns, _ = perCall(r.micro, func() { q := next(); c.AnswerStore(q.ChunkIDs, q.PromptTokens, q.OutputTokens) })
	r.set("cache.answer_store_ns", ns)
	ns, _ = perCall(r.micro, func() { q := next(); c.AnswerLookup(q.ChunkIDs, q.PromptTokens, q.OutputTokens) })
	r.set("cache.answer_lookup_ns", ns)
	r.set("cache.replay_credits_s", w.steps["cache.ReplayCredits"])
	st := r.liveLo.Cache
	r.set("cache.hit_rate", st.HitRate)
	r.set("cache.saved_tokens", float64(st.SavedTokens))
	r.set("cache.evictions", float64(st.Evictions))
	r.set("cache.answer_hits", float64(st.AnswerHits))
	r.set("cache.live_vs_sim_hit_gap", math.Abs(st.HitRate-r.simLo.Cache.HitRate))
	return nil
}

// window is a FormView over a fixed set of waiting prompts.
type window struct {
	prompts []int
	enq     []float64
}

func (v window) Len() int                 { return len(v.prompts) }
func (v window) EnqueuedAt(i int) float64 { return v.enq[i] }
func (v window) PromptTokens(i int) int   { return v.prompts[i] }

func (r *run) layerEngine() error {
	w := r.w
	plan, sched := w.top(), w.top().Sched
	var err error
	ns, _ := perCall(r.micro, func() { _, err = engine.Compile(w.pipe, sched, w.prof) })
	if err != nil {
		return err
	}
	r.set("engine.compile_ns", ns)
	ev, err := engine.NewEvaluator(w.pipe, w.prof)
	if err != nil {
		return err
	}
	ns, allocs := perCall(r.micro, func() { ev.Evaluate(sched) })
	r.set("engine.evaluate_ns", ns)
	r.set("engine.evaluate_allocs", allocs)
	ns, _ = perCall(r.micro, func() { plan.StepLatency(plan.PrefixIdx, plan.Steps[plan.PrefixIdx].Batch-1) })
	r.set("engine.step_latency_ns", ns)

	if w.sc.triggers {
		ns, _ = perCall(r.micro, func() { engine.IterativeCost(w.pipe, w.prof, sched) })
		r.set("engine.iterative_cost_ns", ns)
	} else {
		r.zero("engine.iterative_cost_ns")
	}
	shaped := []string{"engine.evaluate_shaped_ns", "engine.shape_metrics_ns", "engine.form_ns.fifo",
		"engine.form_ns.bucketed", "engine.form_ns.sorted", "engine.chunk_prefill_ns",
		"engine.step_latency_shaped_ns", "engine.pad_efficiency"}
	if !w.sc.reuse {
		r.zero(shaped...)
		return nil
	}
	ns, _ = perCall(r.micro, func() { ev.EvaluateShaped(sched, w.shapes) })
	r.set("engine.evaluate_shaped_ns", ns)
	ns, _ = perCall(r.micro, func() { plan.ShapeMetrics(w.shapes) })
	r.set("engine.shape_metrics_ns", ns)
	r.set("engine.pad_efficiency", plan.PadEfficiency(w.shapes))

	// Formation: one decision over a 64-deep window of the trace's prompts.
	win := window{}
	for i := 0; i < 64; i++ {
		win.prompts = append(win.prompts, w.traceLo[i].PromptTokens)
		win.enq = append(win.enq, float64(i)*0.01)
	}
	for _, pol := range []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted} {
		f := plan.Former()
		f.Policy, f.Flush = pol, w.sc.flush
		ns, _ = perCall(r.micro, func() { f.Form(win, 1) })
		r.set("engine.form_ns."+pol.String(), ns)
	}
	batch := win.prompts[:plan.Steps[plan.PrefixIdx].Batch]
	var doneAt []float64
	ns, _ = perCall(r.micro, func() { doneAt, _, _, _ = plan.ChunkPrefill(batch, doneAt) })
	r.set("engine.chunk_prefill_ns", ns)
	sh, _ := plan.PrefixBatchShape(batch)
	ns, _ = perCall(r.micro, func() { plan.StepLatencyShaped(plan.PrefixIdx, len(batch), sh) })
	r.set("engine.step_latency_shaped_ns", ns)
	return nil
}

func (r *run) layerStageperf() error {
	w := r.w
	plan := w.top()
	st := plan.Steps[plan.PrefixIdx]
	cold := stageperf.New(hw.XPUC, hw.EPYCHost, w.sc.schema)
	cold.NoMemo = true // every call runs the analytical models from scratch
	ns, _ := perCall(r.micro, func() { cold.Eval(st.Stage, st.Chips, st.Batch) })
	r.set("stageperf.eval_cold_ns", ns)
	ns, _ = perCall(r.micro, func() { w.prof.Eval(st.Stage, st.Chips, st.Batch) })
	r.set("stageperf.eval_memo_ns", ns)
	ns, _ = perCall(r.micro, func() { cold.Envelope(st.Stage, st.Chips, 32) })
	r.set("stageperf.envelope_ns", ns)

	xs := xpusim.New(hw.XPUC)
	var err error
	ns, _ = perCall(r.micro, func() { _, err = xs.Prefix(st.Stage.Model, st.Stage.SeqLen, st.Batch, st.Chips) })
	if err != nil {
		return err
	}
	r.set("xpusim.prefix_ns", ns)
	dec := plan.Steps[plan.DecodeIdx]
	perReplica := dec.Batch / dec.Replicas
	ns, _ = perCall(r.micro, func() {
		_, err = xs.DecodeStep(dec.Stage.Model, perReplica, dec.Stage.CtxLen, dec.Chips/dec.Replicas)
	})
	if err != nil {
		return err
	}
	r.set("xpusim.decode_step_ns", ns)
	return nil
}

func (r *run) layerCore() error {
	w := r.w
	st := r.planStats
	r.set("core.plans", float64(st.Plans))
	r.set("core.plans_searched", float64(st.Searched))
	r.set("core.plans_pruned", float64(st.PrunedPlans))
	r.set("core.partials_pruned", float64(st.PrunedPartials))
	if st.Plans > 0 {
		r.set("core.prune_share", float64(st.PrunedPlans)/float64(st.Plans))
	} else {
		r.zero("core.prune_share")
	}
	r.set("core.qps_bound_gap", st.QPSGap)
	r.set("core.ttft_bound_gap", st.TTFTGap)
	r.set("core.optimize_allocs", float64(r.planAllocs))

	opts := w.planOptions(r.sz)
	opts.Workers = 1
	var one *core.Optimizer
	var err error
	oneS := timed(func() {
		r.rec.do("core.Optimize(1 worker)", func() {
			if one, err = core.NewOptimizer(w.sc.schema, opts); err == nil {
				if w.sc.sharded {
					one.Prof.Shards, one.Prof.RecallMod = w.sh.Shards(), w.recall
				}
				one.Optimize()
			}
		})
	})
	if err != nil {
		return err
	}
	r.set("core.optimize_1worker_s", oneS)
	r.set("core.parallel_x", oneS/r.metrics["optimize_s"]) // base: the GOMAXPROCS-worker search

	plans := one.Plans()
	mid := plans[len(plans)/2]
	ns, _ := perCall(r.micro, func() { one.PlanFrontier(mid) })
	r.set("core.plan_frontier_ns", ns)
	var base []core.SchedulePoint
	r.set("core.baseline_s", timed(func() { base = one.BaselineFrontier() }))
	if b, ok := perf.MaxQPSPerChip(base); ok && b.Metrics.QPSPerChip > 0 {
		r.set("core.gain_vs_baseline_x", r.metrics["plan_qps_per_chip"]/b.Metrics.QPSPerChip) // base: §7.1 baseline
	} else {
		r.zero("core.gain_vs_baseline_x")
	}
	ns, _ = perCall(r.micro, func() {
		var inc perf.Incremental
		for _, p := range r.front {
			inc.Insert(p.Metrics)
		}
	})
	r.set("core.perf.incremental_insert_ns", ns/float64(len(r.front)))
	return nil
}

func (r *run) layerTrace() error {
	w := r.w
	r.set("trace.gen_s", w.steps["trace.gen"])
	var err error
	r.set("trace.json_roundtrip_s", timed(func() {
		var buf bytes.Buffer
		if err = trace.WriteJSON(&buf, w.sc.name, w.traceLo); err == nil {
			_, err = trace.ReadJSON(&buf)
		}
	}))
	return err
}

// ttftP99 is the p99 of arrival-to-prefix-completion over traced requests.
func ttftP99(reqs []obs.RequestTrace) float64 {
	var ttft []float64
	for _, q := range reqs {
		for _, s := range q.Spans {
			if s.Stage == "prefix" {
				ttft = append(ttft, s.End-q.Arrival)
				break
			}
		}
	}
	return quantile(ttft, 0.99)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tracedSim runs the simulator on reqs with an obs.Tracer on its bus.
func (r *run) tracedSim(plan *engine.Plan, reqs []trace.Request) ([]obs.RequestTrace, float64, error) {
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		return nil, 0, err
	}
	if des.Cache, err = r.w.newCache(); err != nil {
		return nil, 0, err
	}
	des.MaxInFlight = r.w.sc.maxInFlight
	des.Bus = obs.NewBus()
	tracer := obs.NewTracer()
	if err := tracer.Attach(des.Bus, tracerBuf); err != nil {
		return nil, 0, err
	}
	wall := timed(func() { _, err = des.Run(reqs, r.w.sc.flush) })
	tracer.Close()
	if err != nil {
		return nil, 0, err
	}
	return tracer.Requests(), wall, nil
}

func (r *run) layerSim() error {
	w := r.w
	n := float64(len(w.traceHi))
	r.set("sim.ns_per_req", 1e9*r.host("sim")/n)
	r.set("sim.allocs_per_run", float64(r.simAllocs))
	r.set("sim.pad_waste", r.simHi.PadWaste)
	r.set("sim.stall_mean_s", r.simLo.MeanStall)
	r.set("sim.rejected_share", float64(r.simHi.Rejected)/n)

	var reqs []obs.RequestTrace
	var wall float64
	var err error
	r.rec.do("sim.ServeSim.Run+tracer", func() { reqs, wall, err = r.tracedSim(w.top(), w.traceLo) })
	if err != nil {
		return err
	}
	r.set("sim.ttft_p99_s", ttftP99(reqs))
	_, plain, err := r.simRun(w.traceLo)
	if err != nil {
		return err
	}
	r.set("sim.traced_x", wall/plain) // base: the same run with a nil bus
	r.simTracedWall, r.simPlainWall = wall, plain

	if plan := w.top(); plan.Round != nil {
		r.set("sim.iterative_run_s", timed(func() {
			_, err = sim.RunIterative(sim.IterativeConfig{
				DecodeBatch:      plan.Sched.DecodeBatch,
				IterBatch:        plan.Sched.IterativeBatch,
				DecodeTokens:     plan.Steps[plan.DecodeIdx].Stage.OutTokens,
				RetrievalsPerSeq: plan.Round.RoundsPerSeq,
				StepTime:         plan.Round.DecodeStep,
				RetrievalLatency: func(b int) float64 { return plan.StepLatency(plan.IterRetrievalSlot(), b) },
				PrefixLatency:    func(b int) float64 { return plan.StepLatency(plan.IterPrefixSlot(), b) },
				Sequences:        400,
				Seed:             corpusSeed,
			})
		}))
		return err
	}
	r.zero("sim.iterative_run_s")
	return nil
}

// stageStats aggregates the traced rate_lo run's per-request spans: p99
// queue wait of one stage, and the share of the run its track was busy.
// A serial worker (slots 1) is busy for the union of its members' service
// intervals; decode slots are held one per request.
func stageStats(reqs []obs.RequestTrace, stage string, slots int) (waitP99, busyShare float64) {
	type interval struct{ start, end float64 }
	var ivs []interval
	var waits []float64
	for _, q := range reqs {
		for _, s := range q.Spans {
			if s.Stage == stage {
				waits = append(waits, s.Start-s.Enq)
				ivs = append(ivs, interval{s.Start, s.End})
			}
		}
	}
	if len(ivs) == 0 {
		return 0, 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var busy float64
	first, last, until := ivs[0].start, ivs[0].start, ivs[0].start
	for _, iv := range ivs {
		last = math.Max(last, iv.end)
		if slots > 1 {
			busy += iv.end - iv.start
		} else if iv.end > until {
			busy += iv.end - math.Max(iv.start, until)
			until = iv.end
		}
	}
	if last > first {
		busyShare = busy / (last - first) / float64(slots)
	}
	return quantile(waits, 0.99), busyShare
}

func (r *run) layerServe() error {
	w := r.w
	plan := w.top()
	n := float64(len(w.traceDispatch))
	r.set("serve.ns_per_req", 1e9*r.host("dispatch")/n)
	r.set("serve.allocs_per_req", float64(r.dispatchAllocs)/n)
	hi, lo := r.liveHi, r.liveLo
	if r.ctl != nil {
		r.set("serve.qps_vs_sim", r.metrics["control.live_vs_replay_qps"])
	} else {
		r.set("serve.qps_vs_sim", hi.SustainedQPS/r.simHi.QPS)
	}
	r.set("serve.ttft_p99_vs_sim", lo.TTFT.P99/r.metrics["sim.ttft_p99_s"])
	var lastDone float64
	for _, q := range r.loTrace {
		lastDone = math.Max(lastDone, q.Done)
	}
	r.set("serve.pacing_lag_share", math.Max(0, lo.DurationV-lastDone)/lo.DurationV)
	fill := map[string]float64{}
	var peakDecode float64
	for _, q := range lo.Queues {
		fill[q.Stage] = q.MeanFill
		if q.Stage == "decode" {
			peakDecode = float64(q.PeakDepth)
		}
	}
	r.set("serve.fill.retrieval", fill["retrieval"])
	r.set("serve.fill.prefix", fill["prefix"])
	r.set("serve.peak_depth.decode", peakDecode)
	for _, s := range []struct {
		stage string
		slots int
	}{{"retrieval", 1}, {"prefix", 1}, {"decode", plan.Sched.DecodeBatch}} {
		wait, busy := stageStats(r.loTrace, s.stage, s.slots)
		r.set("serve.queue_wait_p99_s."+s.stage, wait)
		r.set("serve.busy_share."+s.stage, busy)
	}
	r.set("serve.pad_waste", lo.PadWaste)
	r.set("serve.stall_mean_s", lo.Stall.Mean)
	r.set("serve.rejected_share", float64(lo.Rejected)/float64(lo.Rejected+lo.Admitted))
	r.set("serve.shard_fallbacks", float64(lo.ShardFallbacks))
	r.set("serve.search_wall_p99_s", lo.SearchWall.P99)
	if w.sc.index {
		// Real scan wall over the wall time the model paces one retrieval
		// batch at: above 1 the index, not the model, sets latency.
		paced := plan.Steps[plan.RetrievalIdxs[0]].Latency / w.sc.speedLo
		r.set("serve.search_wall_share", lo.SearchWall.Mean/paced)
	} else {
		r.zero("serve.search_wall_share")
	}
	if _, ok := r.metrics["serve.telemetry_ns"]; !ok {
		r.zero("serve.telemetry_ns")
	}
	if err := r.switchCost(); err != nil {
		return err
	}
	return r.fanoutAnomaly()
}

// switchCost times Server.Switch on the control workload: a paced replay
// runs in the background while the driver hops along the ladder.
func (r *run) switchCost() error {
	w := r.w
	if !w.sc.diurnal {
		r.zero("serve.switch_ns")
		return nil
	}
	opts, err := r.serveOptions(w.sc.speedLo * 4)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(w.plans[0], opts)
	if err != nil {
		return err
	}
	reqs := w.traceLo[:len(w.traceLo)/4]
	type outcome struct {
		rep *serve.ServerReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := srv.Serve(reqs)
		done <- outcome{rep, err}
	}()
	<-srv.Started()
	var spent time.Duration
	hops := 0
	for ; hops < 12; hops++ {
		start := time.Now()
		err := srv.Switch(w.plans[(hops+1)%len(w.plans)])
		spent += time.Since(start)
		if err != nil {
			break // the replay drained first; the hops so far still count
		}
		time.Sleep(20 * time.Millisecond)
	}
	out := <-done
	if out.err != nil {
		return out.err
	}
	r.accountLive(out.rep, len(reqs))
	if hops > 0 {
		r.set("serve.switch_ns", float64(spent.Nanoseconds())/float64(hops))
	} else {
		r.zero("serve.switch_ns")
	}
	return nil
}

// fanoutAnomaly repeats the paced rate_lo replay at fanout 1 and 4 on the
// sharded workload, against the simulator at the same fanout — ROADMAP's
// "p99 TTFT 0.11 s -> 7.5 s at fanout 4" either reproduces or it does not.
func (r *run) fanoutAnomaly() error {
	w := r.w
	if !w.sc.sharded {
		r.zero("serve.ttft_p99_vs_sim.fanout1", "serve.ttft_p99_vs_sim.fanout4")
		return nil
	}
	reqs := w.traceLo[:len(w.traceLo)/3]
	for _, f := range []struct {
		name   string
		fanout int
	}{{"serve.ttft_p99_vs_sim.fanout1", 1}, {"serve.ttft_p99_vs_sim.fanout4", 4}} {
		sched := w.top().Sched
		sched.ShardFanout = f.fanout
		plan, err := engine.Compile(w.pipe, sched, w.prof)
		if err != nil {
			return err
		}
		simReqs, _, err := r.tracedSim(plan, reqs)
		if err != nil {
			return err
		}
		opts, err := r.serveOptions(w.sc.speedLo)
		if err != nil {
			return err
		}
		rep, err := r.serveRun(plan, reqs, opts)
		if err != nil {
			return err
		}
		r.set(f.name, rep.TTFT.P99/ttftP99(simReqs))
	}
	return nil
}

func (r *run) layerObs() error {
	w := r.w
	for _, subs := range []struct {
		name string
		n    int
	}{{"obs.publish_ns.sub0", 0}, {"obs.publish_ns.sub1", 1}, {"obs.publish_ns.sub4", 4}} {
		bus := obs.NewBus()
		var stops []func() uint64
		for i := 0; i < subs.n; i++ {
			stops = append(stops, countEvents(bus))
		}
		ev := obs.Event{Kind: obs.KindEnqueue, T: 1, Req: 1, Stage: "prefix", Track: "group0"}
		ns, _ := perCall(r.micro, func() { bus.Publish(ev) })
		for _, stop := range stops {
			stop()
		}
		r.set(subs.name, ns)
	}
	r.set("obs.events_per_req", float64(r.loPublished)/float64(len(w.traceLo)))
	r.set("obs.traced_dispatch_x", r.tracedDispatchWall/r.host("dispatch")) // base: the workload's untraced dispatch

	tracer := r.loTracer // assembling and exporting the rate_lo run's events again
	r.set("obs.tracer_requests_s", timed(func() { tracer.Requests() }))
	var err error
	r.set("obs.chrome_export_s", timed(func() { _, err = tracer.ChromeTrace() }))
	return err
}

func (r *run) layerControl() error {
	w := r.w
	if !w.sc.diurnal {
		r.zero("control.library_build_s", "control.reweight_ns", "control.switches", "control.chip_s_saved_share",
			"control.drain_mean_s", "control.sim_replay_s", "control.live_vs_replay_qps")
		return nil
	}
	r.set("control.library_build_s", r.libraryS)
	lib, err := control.NewLibraryFromPlans(w.plans) // Reweight prices in place: not the served library
	if err != nil {
		return err
	}
	shapes := []engine.Shape{{PromptTokens: 256, OutputTokens: 128}, {PromptTokens: 1024, OutputTokens: 256}}
	ns, _ := perCall(r.micro, func() { lib.Reweight(shapes) })
	r.set("control.reweight_ns", ns)
	r.set("control.switches", float64(len(r.ctl.Events)))
	r.set("control.chip_s_saved_share", r.ctl.Saved)
	var drain float64
	for _, e := range r.ctl.Events {
		drain += e.DrainSeconds
	}
	if n := len(r.ctl.Events); n > 0 {
		drain /= float64(n)
	}
	r.set("control.drain_mean_s", drain)
	return nil
}
