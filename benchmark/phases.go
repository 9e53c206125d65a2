package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/perf"
	"rago/internal/serve"
	"rago/internal/sim"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// Shares of -seconds the repetition loops of the host-timed phases may
// spend (the plan phase's share is per workload). The paced phases take the
// wall time their frozen speedup and scaled trace length give them.
const (
	simShare      = 0.07
	dispatchShare = 0.16
	searchShare   = 0.07
)

// run is one benchmark process: one workload, one seed.
//
// The host-timed units (set-up, optimize, sim, dispatch, search) are
// repeated in rounds spread over the whole run, and each reports the median
// of its repetitions. This box flips between two CPU speed states about 25%
// apart every few seconds (a fixed ALU loop takes 0.295 s or 0.37 s), so
// repetitions packed into one 2 s phase all see one state and their median
// flips with it; spread over 25 s they sample both. Low quantiles are no
// better: the unpaced control-workload replay has a second, 2x faster mode
// (its bus subscriber starves and every publish drops) that comes in bursts
// of up to a third of the repetitions.
type run struct {
	w       *world
	sc      *scenario
	seed    int64
	sz      sizes
	seconds float64
	rounds  int
	micro   time.Duration // how long each per-call layer measurement loops
	traced  bool
	rec     *recorder

	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string

	reps      map[string][]float64 // seconds of every repetition, per host-timed unit
	phaseWall map[string]float64

	// Carried between phases.
	front          []core.SchedulePoint
	bestPerChip    []float64 // max QPS/chip of every optimize repetition
	simHi, simLo   sim.ServeResult
	simRuns        int
	liveHi, liveLo *serve.ServerReport
	ctl            *control.Result
	searched       [][]vectordb.Result
	loTracer       *obs.Tracer        // the traced rate_lo run's tracer, closed
	loTrace        []obs.RequestTrace // its per-request spans
	loPublished    uint64             // events the run's bus published

	// Traced-run extras the per-layer ledger reads.
	planStats          core.SearchStats
	planAllocs         uint64
	libraryS           float64
	simAllocs          uint64
	dispatchAllocs     uint64
	tracedDispatchWall float64
	simTracedWall      float64 // rate_lo trace, bus + tracer attached
	simPlainWall       float64
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// check records one in-run correctness check; a failed check counts as a
// failed operation and makes the run incorrect.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// ops accounts a phase's operations: shed or errored ones are failures.
func (r *run) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// took records one repetition of a host-timed unit.
func (r *run) took(unit string, secs float64) { r.reps[unit] = append(r.reps[unit], secs) }

// host is a unit's host time: the median of its repetitions.
func (r *run) host(unit string) float64 { return median(r.reps[unit]) }

// slice is one round's share of a host-timed phase: it repeats rep, which
// times itself through took, until the round's budget is spent. Every
// repetition starts from a collected heap. A traced or quick run repeats
// nothing.
func (r *run) slice(name string, share float64, rep func() error) error {
	budget := time.Duration(share * r.seconds / float64(r.rounds) * float64(time.Second))
	start := time.Now()
	var err error
	r.rec.do("phase."+name, func() {
		for first := true; err == nil && (first || (r.rounds > 1 && time.Since(start) < budget)); first = false {
			r.rec.do("runtime.GC", runtime.GC)
			err = rep()
		}
	})
	r.phaseWall[name] += time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("%s phase: %w", name, err)
	}
	return nil
}

// measure runs the whole workload: rounds of host-timed slices with the two
// paced replays in between, then the derived metrics and checks.
func (r *run) measure() error {
	for round := 0; round < r.rounds; round++ {
		runtime.GC()
		var err error
		r.took("setup", timed(func() {
			r.rec.do("setup", func() { r.w, err = setup(r.sc, r.seed, r.sz, r.rec) })
		}))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := r.slice("plan", r.sc.planShare, r.planRep); err != nil {
			return err
		}
		if err := r.slice("sim", simShare, r.simRep); err != nil {
			return err
		}
		if round == r.rounds/3 {
			if err := r.slice("live", 0, r.liveHiRun); err != nil {
				return err
			}
		}
		if round == 2*r.rounds/3 {
			if err := r.slice("live", 0, r.liveLoRun); err != nil {
				return err
			}
		}
		if err := r.slice("dispatch", dispatchShare, r.dispatchRep); err != nil {
			return err
		}
		if r.sc.index {
			if err := r.slice("search", searchShare, r.searchRep); err != nil {
				return err
			}
		}
	}
	if r.traced {
		var err error
		if r.tracedDispatchWall, err = r.dispatchOnce(true); err != nil {
			return err
		}
	}
	return r.derive()
}

// derive turns the phases' raw results into metrics and runs the checks
// that span phases.
func (r *run) derive() error {
	w := r.w
	r.set("setup_s", r.host("setup"))
	r.set("optimize_s", r.host("optimize"))
	r.set("sim_req_per_s", float64(len(w.traceHi))/r.host("sim"))
	r.set("dispatch_req_per_s", float64(len(w.traceDispatch))/r.host("dispatch"))

	front := r.front
	r.check("plan.frontier-nonempty", len(front) > 0, "the frontier is empty")
	if len(front) == 0 {
		return fmt.Errorf("empty frontier")
	}
	ascending := sort.SliceIsSorted(front, func(i, j int) bool { return front[i].Metrics.TTFT < front[j].Metrics.TTFT })
	r.check("plan.ttft-ascending", ascending, "frontier not sorted by TTFT")
	same := true
	for _, b := range r.bestPerChip {
		same = same && b == r.bestPerChip[0]
	}
	r.check("plan.repeatable", same, "max QPS/chip differs between repetitions: %v", r.bestPerChip)
	r.set("plan_qps_per_chip", r.bestPerChip[0])
	minTTFT, _ := perf.MinTTFT(front)
	r.set("core.plan_min_ttft_s", minTTFT.Metrics.TTFT)
	r.set("core.frontier_points", float64(len(front)))

	r.set("model_qps_per_chip", r.simHi.QPS/float64(w.top().Sched.ChipsUsed()))
	r.set("model_ttft_mean_s", r.simLo.MeanTTFT)

	hi, lo := r.liveHi, r.liveLo
	r.set("live_qps_per_chip", float64(hi.Completed)/hi.ChipSeconds)
	r.set("live_ttft_p50_s", lo.TTFT.P50)
	r.set("live_ttft_p99_s", lo.TTFT.P99)
	r.set("live_latency_p50_s", lo.Latency.P50)
	r.set("serve.tpot_p99_s", lo.TPOT.P99)
	if !w.sc.diurnal && !r.sz.quick {
		// At smoke size the runs are too short for the 15% band.
		r.check("live.qps-vs-sim", within(hi.SustainedQPS, r.simHi.QPS, 0.15),
			"live saturation QPS %.2f vs sim %.2f", hi.SustainedQPS, r.simHi.QPS)
	}
	if w.sc.reuse {
		gap := math.Abs(lo.Cache.HitRate - r.simLo.Cache.HitRate)
		r.check("live.hit-rate-gap", gap <= 0.05, "live hit rate %.3f vs sim %.3f", lo.Cache.HitRate, r.simLo.Cache.HitRate)
		ev := lo.Cache.Evictions
		r.check("cache.evicting", ev > 0 && lo.Cache.HitRate > 0.4 && lo.Cache.HitRate < 0.9,
			"hit rate %.3f with %d evictions: the cache is not in its evicting regime", lo.Cache.HitRate, ev)
	}
	if w.sc.index {
		return r.deriveSearch()
	}
	return nil
}

// planRep is one cold NewOptimizer+Optimize (+ NewLibrary on the control
// workload): a fresh profiler with empty memo tables.
func (r *run) planRep() error {
	w := r.w
	var o *core.Optimizer
	var front []core.SchedulePoint
	var err error
	before := mallocs()
	secs := timed(func() {
		r.rec.do("core.NewOptimizer", func() { o, err = w.newOptimizer(r.sz) })
		if err != nil {
			return
		}
		r.rec.do("core.Optimize", func() { front = o.Optimize() })
		r.planAllocs, r.planStats = mallocs()-before, o.SearchStats()
		if w.sc.library {
			r.libraryS = timed(func() {
				r.rec.do("control.NewLibrary", func() { _, err = control.NewLibrary(o, front, control.SLO{TTFT: 1}) })
			})
		}
	})
	if err != nil {
		return err
	}
	r.took("optimize", secs)
	r.ops(1, 0)
	r.front = front
	if p, ok := perf.MaxQPSPerChip(front); ok {
		r.bestPerChip = append(r.bestPerChip, p.Metrics.QPSPerChip)
	}
	return nil
}

// simRun executes one discrete-event run of the served plan on reqs with a
// fresh cache, returning the result and ServeSim.Run's wall seconds.
func (r *run) simRun(reqs []trace.Request) (sim.ServeResult, float64, error) {
	w := r.w
	var des *sim.ServeSim
	var err error
	r.rec.do("sim.NewServeFromPlan", func() {
		if des, err = sim.NewServeFromPlan(w.top()); err == nil {
			des.Cache, err = w.newCache()
		}
	})
	if err != nil {
		return sim.ServeResult{}, 0, err
	}
	des.MaxInFlight = w.sc.maxInFlight
	var res sim.ServeResult
	wall := timed(func() {
		r.rec.do("sim.ServeSim.Run", func() { res, err = des.Run(reqs, w.sc.flush) })
	})
	if err == nil {
		r.ops(len(reqs), res.Rejected)
		r.check("sim.conservation", res.Completed+res.Rejected == len(reqs),
			"completed %d + rejected %d != %d", res.Completed, res.Rejected, len(reqs))
	}
	return res, wall, err
}

// sameSim compares two ServeResults by value (Cache is a pointer).
func sameSim(a, b sim.ServeResult) bool {
	ac, bc := a.Cache, b.Cache
	a.Cache, b.Cache = nil, nil
	return a == b && reflect.DeepEqual(ac, bc)
}

// simRep times one ServeSim.Run at rate_hi; every repetition must reproduce
// the first bit for bit. The first also runs rate_lo once for the modeled
// TTFT (the diurnal workload has one trace for both).
func (r *run) simRep() error {
	w := r.w
	before := mallocs()
	res, wall, err := r.simRun(w.traceHi)
	if err != nil {
		return err
	}
	r.simAllocs = mallocs() - before
	r.took("sim", wall)
	r.simRuns++
	if r.simRuns > 1 {
		r.check("sim.deterministic", sameSim(res, r.simHi), "two runs of one seed differ: %+v vs %+v", res, r.simHi)
		return nil
	}
	r.simHi, r.simLo = res, res
	if !w.sc.diurnal {
		r.simLo, _, err = r.simRun(w.traceLo)
	}
	return err
}

// serveOptions are the live runtime's options for this workload. Each call
// builds a fresh cache; searching runs on the retrieval path when the
// workload has an index.
func (r *run) serveOptions(speedup float64) (serve.Options, error) {
	w := r.w
	c, err := w.newCache()
	if err != nil {
		return serve.Options{}, err
	}
	opts := serve.Options{
		Speedup: speedup, FlushTimeout: w.sc.flush, MaxInFlight: w.sc.maxInFlight, Cache: c,
	}
	switch {
	case w.sc.sharded:
		opts.Sharded, opts.SearchK, opts.QueryDim, opts.QuerySeed = w.sh, searchK, corpusDim, corpusSeed
	case w.sc.index:
		ix, nprobe := w.ix, w.sc.nprobe
		opts.Searcher = func(q [][]float32) ([][]vectordb.Result, error) { return ix.SearchBatch(q, searchK, nprobe) }
		opts.QueryDim, opts.QuerySeed = corpusDim, corpusSeed
	}
	return opts, nil
}

// serveRun replays reqs through a fresh Server on plan.
func (r *run) serveRun(plan *engine.Plan, reqs []trace.Request, opts serve.Options) (*serve.ServerReport, error) {
	var srv *serve.Server
	var err error
	r.rec.do("serve.NewServer", func() { srv, err = serve.NewServer(plan, opts) })
	if err != nil {
		return nil, err
	}
	var rep *serve.ServerReport
	r.rec.do("serve.Server.Serve", func() { rep, err = srv.Serve(reqs) })
	if err != nil {
		return nil, err
	}
	r.accountLive(rep, len(reqs))
	return rep, nil
}

func (r *run) accountLive(rep *serve.ServerReport, n int) {
	r.ops(n, rep.Rejected)
	r.check("live.conservation", rep.Completed+rep.Rejected == n && rep.Admitted == rep.Completed,
		"completed %d + rejected %d != %d (admitted %d)", rep.Completed, rep.Rejected, n, rep.Admitted)
}

// liveHiRun is the wall-paced replay at rate_hi, for throughput. On the
// control workload the one controlled run (liveLoRun) yields everything.
func (r *run) liveHiRun() error {
	w := r.w
	if w.sc.diurnal {
		return nil
	}
	opts, err := r.serveOptions(w.sc.speedHi)
	if err != nil {
		return err
	}
	r.liveHi, err = r.serveRun(w.top(), w.traceHi, opts)
	return err
}

// liveLoRun is the wall-paced replay at rate_lo, for latency; a traced run
// attaches an obs.Tracer for per-request queue/service/stall spans.
func (r *run) liveLoRun() error {
	w := r.w
	if w.sc.diurnal {
		return r.controlledRun()
	}
	opts, err := r.serveOptions(w.sc.speedLo)
	if err != nil {
		return err
	}
	finish := r.attachTracer(&opts)
	r.liveLo, err = r.serveRun(w.top(), w.traceLo, opts)
	finish()
	return err
}

// tracerBuf is the traced runs' tracer buffer: deep enough that a paced or
// simulated run drops nothing, small enough that allocating it is cheap.
const tracerBuf = 1 << 18

// attachTracer puts a bus with an obs.Tracer on a traced run's options; the
// returned finish drains it into r.loTrace. Untraced runs get a no-op.
func (r *run) attachTracer(opts *serve.Options) (finish func()) {
	if !r.traced {
		return func() {}
	}
	if opts.Bus == nil {
		opts.Bus = obs.NewBus()
	}
	bus, tracer := opts.Bus, obs.NewTracer()
	r.rec.do("obs.Tracer.Attach", func() {
		if err := tracer.Attach(bus, tracerBuf); err != nil {
			panic(err) // a fresh tracer always attaches
		}
	})
	return func() {
		r.rec.do("obs.Tracer.Requests", func() {
			tracer.Close()
			r.loTrace = tracer.Requests()
		})
		r.loTracer = tracer
		r.loPublished, _ = bus.Stats()
	}
}

func within(got, want, tol float64) bool {
	return want > 0 && math.Abs(got/want-1) <= tol
}

// controlledRun is c4-diurnal-control's paced phase: one Controller.Run over
// the frozen ladder with the bus attached and one counting subscriber.
func (r *run) controlledRun() error {
	w := r.w
	ctl, err := control.NewController(w.lib, control.Config{
		SLO: control.SLO{TTFT: 1}, Window: 12, Interval: 4, Headroom: 1.3, HoldDown: 12,
	})
	if err != nil {
		return err
	}
	opts, err := r.serveOptions(w.sc.speedLo)
	if err != nil {
		return err
	}
	opts.Bus = obs.NewBus()
	opts.WindowEvery = 2
	stopCount := countEvents(opts.Bus)
	finish := r.attachTracer(&opts)
	var res *control.Result
	r.rec.do("control.Controller.Run", func() { res, err = ctl.Run(opts, w.traceLo) })
	finish()
	seen := stopCount()
	if err != nil {
		return err
	}
	r.check("obs.subscriber-saw-events", seen > 0, "counting subscriber received nothing")
	r.ctl, r.liveHi, r.liveLo = res, res.Report, res.Report
	r.accountLive(res.Report, len(w.traceLo))
	var admitted int64
	for _, e := range res.Report.Epochs {
		admitted += e.Admitted
	}
	r.check("control.epoch-admissions", admitted == int64(res.Report.Admitted),
		"epoch admissions sum to %d, report admitted %d", admitted, res.Report.Admitted)
	var replay control.SimResult
	r.set("control.sim_replay_s", timed(func() {
		r.rec.do("control.SimReplay", func() {
			replay, err = control.SimReplay(w.lib, res, w.traceLo, w.sc.flush, w.sc.maxInFlight)
		})
	}))
	if err != nil {
		return err
	}
	r.set("control.live_vs_replay_qps", res.Report.SustainedQPS/replay.QPS)
	if !r.sz.quick {
		r.check("live.qps-vs-sim", within(res.Report.SustainedQPS, replay.QPS, 0.15),
			"controlled QPS %.2f vs sim replay %.2f", res.Report.SustainedQPS, replay.QPS)
	}
	return nil
}

// countEvents attaches a subscriber that only counts; the returned stop
// detaches it, waits for the drain goroutine and returns the count.
func countEvents(bus *obs.Bus) (stop func() uint64) {
	sub := bus.Subscribe(1 << 16)
	done := make(chan uint64)
	go func() {
		var n uint64
		for range sub.Events() {
			n++
		}
		done <- n
	}()
	return func() uint64 {
		sub.Close()
		return <-done
	}
}

// dispatchRep is one unpaced replay (Speedup 1e9: no sleep ever fires), so
// wall time is the harness's own overhead per request.
func (r *run) dispatchRep() error {
	before := mallocs()
	wall, err := r.dispatchOnce(false)
	r.dispatchAllocs = mallocs() - before
	r.took("dispatch", wall)
	return err
}

// dispatchOnce is one unpaced replay. On the control workload the bus is
// attached and a second goroutine polls telemetry at 1 kHz beside the
// completion writes; withTracer additionally attaches an obs.Tracer.
func (r *run) dispatchOnce(withTracer bool) (float64, error) {
	w := r.w
	opts, err := r.serveOptions(1e9)
	if err != nil {
		return 0, err
	}
	opts.MaxInFlight = 0
	if withTracer || w.sc.diurnal {
		opts.Bus = obs.NewBus()
	}
	var srv *serve.Server
	r.rec.do("serve.NewServer", func() { srv, err = serve.NewServer(w.top(), opts) })
	if err != nil {
		return 0, err
	}
	var tracer *obs.Tracer
	stopCount := func() uint64 { return 0 }
	if withTracer {
		// The unpaced run overflows this 64k buffer; the drops are the
		// measurement (obs.dropped_share).
		tracer = obs.NewTracer()
		if err := tracer.Attach(opts.Bus, 1<<16); err != nil {
			return 0, err
		}
	} else if w.sc.diurnal {
		stopCount = countEvents(opts.Bus)
	}
	stopPoll := func() {}
	if w.sc.diurnal {
		stopPoll = r.pollTelemetry(srv)
	}
	var rep *serve.ServerReport
	start := time.Now()
	r.rec.do("serve.Server.Serve", func() { rep, err = srv.Serve(w.traceDispatch) })
	wall := time.Since(start).Seconds()
	stopPoll()
	stopCount()
	if tracer != nil {
		tracer.Close()
		pub, _ := opts.Bus.Stats()
		r.set("obs.dropped_share", float64(tracer.Dropped())/math.Max(1, float64(pub)))
	}
	if err != nil {
		return 0, err
	}
	r.accountLive(rep, len(w.traceDispatch))
	return wall, nil
}

// pollTelemetry polls srv.Telemetry(12) at 1 kHz until stopped, recording
// the mean call time as serve.telemetry_ns.
func (r *run) pollTelemetry(srv *serve.Server) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	var calls int
	var spent time.Duration
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		<-srv.Started()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				t := time.Now()
				srv.Telemetry(12)
				spent += time.Since(t)
				calls++
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		if calls > 0 {
			r.set("serve.telemetry_ns", float64(spent.Nanoseconds())/float64(calls))
		}
	}
}

// search runs the workload's query batch at its k/nprobe/fanout.
func (w *world) search(queries [][]float32) ([][]vectordb.Result, error) {
	if w.sc.sharded {
		return w.sh.SearchBatch(queries, searchK, w.sc.nprobe, w.sc.fanout, nil)
	}
	return w.ix.SearchBatch(queries, searchK, w.sc.nprobe)
}

// searchRep is the closed loop: one caller, one 256-query batch at a time.
func (r *run) searchRep() error {
	w := r.w
	var err error
	r.took("search", timed(func() {
		r.rec.do("vectordb.SearchBatch", func() { r.searched, err = w.search(w.queries) })
	}))
	r.ops(len(w.queries), 0)
	return err
}

// meanRecall is recall@k averaged over the query batch.
func meanRecall(truth, got [][]vectordb.Result) float64 {
	var sum float64
	for i := range got {
		sum += vectordb.Recall(truth[i], got[i], searchK)
	}
	return sum / float64(len(got))
}

// deriveSearch reads search throughput and recall and checks the results.
func (r *run) deriveSearch() error {
	w := r.w
	r.set("vectordb.search_qps", float64(len(w.queries))/r.host("search"))
	recall := meanRecall(w.truth, r.searched)
	r.set("vectordb.recall_at_10", recall)
	r.check("search.recall-floor", recall >= 0.3, "recall@10 %.3f below the 0.3 floor", recall)
	if !w.sc.sharded {
		return nil
	}
	single, err := w.ix.SearchBatch(w.queries, searchK, w.sc.nprobe)
	if err != nil {
		return err
	}
	full, err := w.sh.SearchBatch(w.queries, searchK, w.sc.nprobe, 0, nil)
	if err != nil {
		return err
	}
	r.check("search.shard-parity", reflect.DeepEqual(single, full), "full-fanout sharded results differ from the single index")
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// perCall times f per call: it loops until at least minDur has passed and
// returns mean nanoseconds and heap allocations per call.
func perCall(minDur time.Duration, f func()) (ns, allocs float64) {
	f() // warm memo tables and lazy set-up
	before := mallocs()
	n := 0
	start := time.Now()
	for batch := 1; time.Since(start) < minDur; batch *= 2 {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(mallocs()-before) / float64(n)
}
