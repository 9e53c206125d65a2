// Package serve executes RAGO schedules for real: it turns a compiled
// execution plan (internal/engine) straight out of the optimizer into a
// concurrent, goroutine-based serving runtime and replays open-loop
// request traces through it under wall-clock pacing.
//
// The engine mirrors the structure the plan describes. Every XPU
// placement group becomes one serial batching worker that time-multiplexes
// its collocated stages; each retrieval tier becomes its own batching
// worker that can additionally run real batched IVF-PQ queries against the
// internal/vectordb substrate on the serving path; the decode tier is a
// pool of continuous-batching slots implemented as a bounded channel of
// slot leases. The runtime is the wall-clock driver of the engine's
// dispatch core, the same one the discrete-event simulator drives from its
// event heap: each worker's engine.Dispatcher queues, forms and prices its
// batches (oldest ripe head first, prefix-cache credits, shaped or chunked
// prefill), and each decode goroutine walks its engine.Seq. What stays
// here is what is live: goroutines, channels, atomic join counters, wall
// sleeping, real search and the metrics collector. On iterative plans
// (§5.3) decode slots run the decode loop live: sequences park at their
// trigger positions while iterative retrieval+prefix rounds batch — at
// the schedule's IterativeBatch, as virtual stage slots on the same serial
// workers the initial pass uses — then resume, accumulating the measured
// stall the analytical fixed point prices. Requests traverse the
// pipeline's stage graph: fan-out branches run concurrently across workers
// and a join stage admits a request only once its last predecessor
// finishes (an atomic countdown per stage), so multi-source pipelines
// serve through the same data plane as linear chains. Tiers are connected by bounded channels sized by the
// admission bound times the stages a worker serves, so the whole data
// plane is allocation-bounded: admission control sheds arrivals once
// MaxInFlight requests are in the system, which in turn guarantees no
// internal channel send can block and no cross-tier cycle can deadlock.
//
// Pacing uses a virtual clock: one virtual second is Speedup wall seconds
// compressed. Stage service times come from the compiled plan (partial
// batches re-profiled through the memoizing stageperf.Profiler) and are
// slept for in wall time, but timestamps advance on a drift-free ledger —
// each resource's next batch starts at max(busyUntil, batch-formable time),
// both exact virtual quantities — so measured saturation throughput
// reflects the schedule, not OS timer jitter, while the concurrency
// (channels, goroutines, shared indexes) is entirely real and race-tested.
//
// Two front ends drive the same data plane. Runtime executes one plan for
// one trace. Server executes a sequence of plans: Switch hot-swaps it onto
// a new compiled plan with drain-and-migrate semantics — in-flight
// requests finish on the old plan's workers while new admissions route to
// the new plan's — which is what the SLO-aware controller in
// internal/control drives. Both publish windowed telemetry (Telemetry)
// that can be polled mid-replay.
package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/retrieval"
	"rago/internal/stageperf"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// SearchFunc executes one batch of real vector-search queries on the
// retrieval serving path (e.g. a closure over vectordb.IVFPQ.SearchBatch).
// It runs concurrently with the modeled retrieval latency; its wall time is
// reported so the substrate can be compared against the analytical model.
// The query vectors live in storage the runtime reuses for later batches, so
// they are valid only until the function returns.
type SearchFunc func(queries [][]float32) ([][]vectordb.Result, error)

// Options configures a Runtime or Server.
type Options struct {
	// Speedup compresses time: one virtual second of schedule latency is
	// served in 1/Speedup wall seconds. 0 means 1 (real time); negative
	// values are rejected.
	Speedup float64
	// FlushTimeout is how long (virtual seconds) a partially filled batch
	// may wait before dispatching anyway. 0 means the 0.05 s default; any
	// negative value dispatches partial batches immediately (what
	// unloaded-latency measurements want).
	FlushTimeout float64
	// MaxInFlight is the admission bound: arrivals finding this many
	// requests already in the system are rejected (open-loop shedding).
	// 0 admits the whole trace; negative values are rejected.
	MaxInFlight int
	// Bus, when set, receives typed observability events for the run —
	// request admit/reject, stage enqueue/start/finish, decode slot
	// lease/park/resume/finish, plan-switch begin/commit/drain, and
	// (with WindowEvery) streamed Window snapshots. A nil Bus, or one
	// with no subscriber attached, keeps every instrumentation site on
	// its zero-cost fast path; subscribers are bounded and drop-counted,
	// so no consumer can ever stall the dataplane.
	Bus *obs.Bus
	// WindowEvery streams a Telemetry window snapshot (width WindowEvery,
	// so consecutive snapshots tile the run) onto Bus every WindowEvery
	// virtual seconds while Serve runs. 0 disables the stream; negative
	// values are rejected.
	WindowEvery float64
	// Cache, when set, is the retrieved-context reuse cache
	// (internal/cache) this engine consults: the prefix tier at batch
	// formation (tagged requests prefill only their uncached suffix, at
	// the discounted shaped cost) and the answer tier at admission (an
	// exact-match hit completes the request immediately). A nil Cache
	// keeps every hot path on the historical no-cache behaviour —
	// untagged traces are bit-identical either way. Executors being
	// cross-checked against each other should each own their own
	// instance, so their hit sequences stay independent.
	Cache *cache.Cache
	// Searcher, when set, runs real vector search per retrieval batch.
	Searcher SearchFunc
	// Sharded, when set, runs each retrieval batch through the real
	// sharded scatter-gather instead of a flat Searcher: per-shard top-k
	// on a healthy replica of every consulted shard (round-robin with
	// failure fallback), merged exactly. The compiled schedule's NProbe
	// and ShardFanout knobs drive the probe count and fanout, and the
	// batch emits shard-scatter/gather/fallback events on Bus. Mutually
	// exclusive with Searcher; requires QueryDim.
	Sharded *vectordb.Sharded
	// SearchK is the per-query neighbor count for Sharded (0 means 10,
	// the recall@10 evaluation point).
	SearchK int
	// QueryDim is the dimensionality of synthesized queries for Searcher.
	QueryDim int
	// QuerySeed makes synthesized query batches deterministic.
	QuerySeed int64
}

// searchOn reports whether a real retrieval substrate is configured.
func (o Options) searchOn() bool { return o.Searcher != nil || o.Sharded != nil }

// validate rejects nonsensical options with a descriptive error instead of
// silently mapping them to defaults.
func (o Options) validate() error {
	if o.Speedup < 0 {
		return fmt.Errorf("serve: Speedup must be non-negative (0 means real time), got %g", o.Speedup)
	}
	if o.MaxInFlight < 0 {
		return fmt.Errorf("serve: MaxInFlight must be non-negative (0 admits everything), got %d", o.MaxInFlight)
	}
	if o.WindowEvery < 0 {
		return fmt.Errorf("serve: WindowEvery must be non-negative (0 disables the window stream), got %g", o.WindowEvery)
	}
	if o.WindowEvery > 0 && o.Bus == nil {
		return fmt.Errorf("serve: WindowEvery without a Bus has nowhere to stream")
	}
	if o.searchOn() && o.QueryDim < 1 {
		return fmt.Errorf("serve: Searcher requires a positive QueryDim")
	}
	if o.Searcher != nil && o.Sharded != nil {
		return fmt.Errorf("serve: Searcher and Sharded are mutually exclusive")
	}
	if o.SearchK < 0 {
		return fmt.Errorf("serve: SearchK must be non-negative (0 means 10), got %d", o.SearchK)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Speedup == 0 {
		o.Speedup = 1
	}
	switch {
	case o.FlushTimeout == 0:
		o.FlushTimeout = 0.05
	case o.FlushTimeout < 0:
		o.FlushTimeout = 0
	}
	return o
}

// request is one in-flight trace entry traversing the stage graph. The
// embedded trace entry (the replayed trace's own element, read-only)
// carries its arrival, shape (0 = schema constant) and retrieved-chunk
// tags (the prefix/KV cache key; untagged requests bypass the cache).
type request struct {
	*trace.Request
	// pending counts unfinished predecessors per stage; the goroutine
	// that decrements a stage's count to zero owns the hand-off.
	pending []atomic.Int32
	// enqV records the virtual time the request entered each stage's
	// queue (virtual iterative slots included). Pipeline slots are
	// written exactly once, before the channel send that publishes them
	// to the reading worker; the iterative slots are rewritten per
	// round, always by the goroutine about to publish the request.
	enqV     []float64
	ttft     float64
	decStart float64

	// seq is the decode walk (engine.Seq), owned by the request's decode
	// goroutine. On iterative plans resume carries the virtual time each
	// round finished back to that goroutine while it is parked (buffered:
	// one round in flight at a time).
	seq    engine.Seq
	resume chan float64
}

// liveRequests resolves the runtime's requests for its dispatchers.
type liveRequests struct{}

func (liveRequests) Trace(q *request) *trace.Request         { return q.Request }
func (liveRequests) EnqueuedAt(q *request, slot int) float64 { return q.enqV[slot] }

// item is one unit of inbox work: a request ready at one stage slot
// (real or virtual).
type item struct {
	q   *request
	idx int
}

// dataplane is the per-plan concurrent execution fabric: the batching
// workers, decode slot pool, and bounded channels executing one compiled
// plan. A Runtime owns exactly one; a Server owns one per epoch, all
// sharing the clock and the metrics collector, so in-flight requests keep
// draining on a retired plan's workers while a newer dataplane admits.
type dataplane struct {
	plan  *engine.Plan
	opts  Options
	clock clock
	coll  *collector

	// bus is the observability event sink; slotName/slotTrack precompute
	// the stable per-slot span names so hot-path publishes allocate
	// nothing (both nil when no bus is configured — every publish site
	// guards on bus.Active()).
	bus       *obs.Bus
	slotName  []string
	slotTrack []string

	resources []*resource
	decode    *decodeTier
	quit      chan struct{}
	stopOnce  sync.Once

	// inflight counts requests admitted to this dataplane and not yet
	// completed; the owner uses it for admission control and (Server)
	// drain detection.
	inflight atomic.Int64

	// cache is the reuse cache (nil = caching off). The dispatchers
	// consult its prefix tier; admit and complete its answer tier.
	cache *cache.Cache

	// arena slab-allocates the per-request bookkeeping (request structs,
	// pending counters, enqueue-time vectors): three allocations per
	// arenaSlab admissions instead of three per request. newRequest is
	// only ever called from the owner's sequential replay goroutine, so
	// the arena needs no lock.
	arena reqArena

	// onComplete retires a finished request with the owner (WaitGroup,
	// drain bookkeeping). onSearchErr records a real-retrieval failure.
	onComplete  func(q *request, done float64)
	onSearchErr func(error)

	// searchBufs recycles runSearch's per-batch query storage.
	searchBufs sync.Pool
}

// newDataplane builds the workers and channels for one plan. bound is the
// in-flight admission bound; channel capacity is bound times the stages a
// worker serves, so no send in the data plane can ever block: a request
// occupies at most one slot per member stage (fan-out branches can queue a
// request at several stages of one worker concurrently).
func newDataplane(plan *engine.Plan, opts Options, ck clock, coll *collector, bound int,
	onComplete func(*request, float64), onSearchErr func(error)) *dataplane {
	dp := &dataplane{
		plan:        plan,
		opts:        opts,
		clock:       ck,
		coll:        coll,
		bus:         opts.Bus,
		cache:       opts.Cache,
		quit:        make(chan struct{}),
		onComplete:  onComplete,
		onSearchErr: onSearchErr,
	}
	if dp.bus != nil {
		dp.slotName = plan.SlotNames()
		dp.slotTrack = plan.TrackNames()
	}
	for ri, res := range plan.Resources {
		// ResourceStages appends the decode loop's virtual round slots
		// to their owning resources, so round batches contend with (and
		// are picked against) the regular stages on the same worker.
		dp.resources = append(dp.resources, &resource{dp: dp, name: res.Name,
			inbox: make(chan item, bound*len(plan.ResourceStages(ri))),
			disp:  engine.NewDispatcher[*request](plan, ri, opts.FlushTimeout, opts.Cache, liveRequests{})})
	}
	dp.decode = &decodeTier{dp: dp}
	dp.decode.start(bound)
	return dp
}

// reqArena holds the slabs newRequest carves per-request bookkeeping out
// of. Slabs are never recycled — requests keep their slices until they
// retire — so this is purely allocation batching, with no lifetime hazard.
type reqArena struct {
	reqs    []request
	pending []atomic.Int32
	enqV    []float64
}

// arenaSlab is how many requests one slab serves.
const arenaSlab = 256

// newRequest builds the per-request bookkeeping for this dataplane's plan.
// Called only from the owner's sequential replay goroutine (see reqArena).
func (dp *dataplane) newRequest(r *trace.Request) *request {
	nSteps, nSlots := len(dp.plan.Steps), dp.plan.NumSlots()
	a := &dp.arena
	if len(a.reqs) == 0 {
		a.reqs = make([]request, arenaSlab)
	}
	if len(a.pending) < nSteps {
		a.pending = make([]atomic.Int32, arenaSlab*nSteps)
	}
	if len(a.enqV) < nSlots {
		a.enqV = make([]float64, arenaSlab*nSlots)
	}
	q := &a.reqs[0]
	a.reqs = a.reqs[1:]
	q.pending, a.pending = a.pending[:nSteps:nSteps], a.pending[nSteps:]
	q.enqV, a.enqV = a.enqV[:nSlots:nSlots], a.enqV[nSlots:]
	q.Request = r
	if dp.plan.Round != nil {
		q.resume = make(chan float64, 1)
	}
	return q
}

// launch starts the worker goroutines.
func (dp *dataplane) launch() {
	for _, r := range dp.resources {
		go r.run()
	}
	go dp.decode.run()
}

// stop shuts the workers down. Idempotent; safe once no request is
// in flight on this dataplane.
func (dp *dataplane) stop() {
	dp.stopOnce.Do(func() { close(dp.quit) })
}

// admit registers a request arriving at virtual time at and routes it to
// the plan's entry stages. The caller has already accounted it in
// dp.inflight (so drain detection cannot race admission). An exact-match
// answer-cache hit short-circuits the whole pipeline: the request
// completes at its arrival instant without touching any worker.
func (dp *dataplane) admit(q *request, at float64) {
	if dp.cache.AnswerOn() && q.Tagged() &&
		dp.cache.AnswerLookup(q.ChunkIDs, q.PromptTokens, q.OutputTokens) {
		if dp.bus.Active() {
			dp.bus.Publish(obs.Event{Kind: obs.KindCacheAnswerHit, T: at, Req: q.ID})
		}
		dp.coll.complete(0, 0, 0, at, 0, q.PromptTokens, q.OutputTokens)
		dp.inflight.Add(-1)
		dp.onComplete(q, at)
		return
	}
	for st, ps := range dp.plan.Preds {
		q.pending[st].Store(int32(len(ps)))
	}
	for _, e := range dp.plan.Entries {
		dp.submit(q, e, at)
	}
}

// submit routes a request, ready at stage idx (real or virtual) since
// virtual time at, to the owning worker.
func (dp *dataplane) submit(q *request, idx int, at float64) {
	if dp.bus.Active() {
		dp.bus.Publish(obs.Event{Kind: obs.KindEnqueue, T: at, Req: q.ID,
			Slot: idx, Stage: dp.slotName[idx], Track: dp.slotTrack[idx]})
	}
	q.enqV[idx] = at
	if st := dp.plan.StepAt(idx); st.Resource >= 0 {
		dp.resources[st.Resource].inbox <- item{q, idx}
		return
	}
	dp.coll.enqueued(dp.plan.DecodeIdx, len(dp.decode.inbox)+1)
	dp.decode.inbox <- q
}

// advance moves a request past stage idx, which completed at virtual
// time t: successors whose last predecessor this was become ready. The
// iterative round's virtual slots chain outside the stage graph: the
// retrieval half feeds the prefix half, and the prefix half hands the
// finish time back to the parked decode goroutine.
func (dp *dataplane) advance(q *request, idx int, t float64) {
	if dp.plan.Round != nil {
		switch idx {
		case dp.plan.IterRetrievalSlot():
			dp.submit(q, dp.plan.IterPrefixSlot(), t)
			return
		case dp.plan.IterPrefixSlot():
			q.resume <- t
			return
		}
	}
	if idx == dp.plan.PrefixIdx {
		q.ttft = t - q.Arrival
	}
	for _, succ := range dp.plan.Succs[idx] {
		if q.pending[succ].Add(-1) == 0 {
			dp.submit(q, succ, t)
		}
	}
}

// complete retires a fully generated request.
func (dp *dataplane) complete(q *request, done float64) {
	tpot := 0.0
	if out := dp.plan.GenTokens(q.OutputTokens); out > 0 {
		tpot = (done - q.decStart) / float64(out)
	}
	dp.coll.release(dp.plan.DecodeIdx, 1)
	dp.coll.complete(q.ttft, tpot, done-q.Arrival, done, q.seq.Stall, q.PromptTokens, q.OutputTokens)
	if dp.cache.AnswerOn() && q.Tagged() {
		dp.cache.AnswerStore(q.ChunkIDs, q.PromptTokens, q.OutputTokens)
	}
	dp.inflight.Add(-1)
	dp.onComplete(q, done)
}

// searchResult is one retrieval batch's real-substrate outcome: the error
// (if any) plus the sharded scatter-gather's fallback bookkeeping — how
// many replica picks skipped unhealthy replicas, and how many consulted
// shards had to be dropped from the merge with every replica down.
type searchResult struct {
	err      error
	fellBack int
	lost     int
}

// searchBuf is one retrieval batch's query storage, reused across batches:
// the generator, the flat backing array the query vectors are drawn into,
// their row views, and the per-query scatter plans (whose Consulted slices
// the sharded index refills in place).
type searchBuf struct {
	rng     *rand.Rand
	flat    []float32
	queries [][]float32
	infos   []vectordb.ShardQuery
}

// runSearch synthesizes the batch's query vectors and executes them against
// the real retrieval substrate, concurrently with the modeled pacing.
func (dp *dataplane) runSearch(batch []*request, done chan<- searchResult) {
	qpr := dp.plan.Pipe.Schema.QueriesPerRetrieval
	if qpr < 1 {
		qpr = 1
	}
	n, dim := len(batch)*qpr, dp.opts.QueryDim
	seed := dp.opts.QuerySeed + int64(batch[0].ID)
	buf, _ := dp.searchBufs.Get().(*searchBuf)
	if buf == nil {
		buf = &searchBuf{rng: rand.New(rand.NewSource(seed))}
	} else {
		buf.rng.Seed(seed)
	}
	defer dp.searchBufs.Put(buf)
	if cap(buf.flat) < n*dim {
		buf.flat = make([]float32, n*dim)
	}
	if cap(buf.queries) < n {
		buf.queries = make([][]float32, n)
	}
	flat, queries := buf.flat[:n*dim], buf.queries[:n]
	for i := range flat {
		flat[i] = buf.rng.Float32() * 10
	}
	for i := range queries {
		queries[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	start := time.Now()
	var res searchResult
	if sh := dp.opts.Sharded; sh != nil {
		k := dp.opts.SearchK
		if k == 0 {
			k = 10
		}
		np := dp.plan.Sched.NProbe
		if np <= 0 {
			// Knob off means the tier's base configuration, same as the
			// analytic cost model's DB.Tuned.
			np = retrieval.BaseNProbe
		}
		if cap(buf.infos) < n {
			buf.infos = make([]vectordb.ShardQuery, n)
		}
		infos := buf.infos[:n]
		_, err := sh.SearchBatch(queries, k, np, dp.plan.Sched.ShardFanout, infos)
		res.err = err
		for _, info := range infos {
			if info.FellBack {
				res.fellBack++
			}
			res.lost += info.Lost
		}
	} else {
		_, res.err = dp.opts.Searcher(queries)
	}
	dp.coll.searchServed(len(queries), time.Since(start).Seconds())
	if res.fellBack > 0 || res.lost > 0 {
		dp.coll.shardDegraded(res.fellBack, res.lost)
	}
	done <- res
}

// Runtime is a live serving engine for one compiled plan: the
// single-plan facade over Server (one epoch, never switched, analytical
// reference attached). It is single-use: build, Serve one trace, read
// the Report.
type Runtime struct {
	plan *engine.Plan
	srv  *Server
}

// New compiles (pipeline, schedule) through the shared engine and builds
// a runtime executing the resulting plan. Negative Options are rejected
// (NewServer's validation).
func New(pipe pipeline.Pipeline, prof *stageperf.Profiler, sched engine.Schedule, opts Options) (*Runtime, error) {
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(plan, opts)
	if err != nil {
		return nil, err
	}
	return &Runtime{plan: plan, srv: srv}, nil
}

// Plan returns the compiled execution plan the runtime executes.
func (rt *Runtime) Plan() *engine.Plan { return rt.plan }

// Analytic returns the assembled analytical metrics of the plan (the
// reference the measured report is compared against).
func (rt *Runtime) Analytic() (perf.Metrics, bool) { return rt.plan.Metrics, true }

// Serve replays the trace through the live engine and blocks until every
// request has completed or been rejected. Arrival times are virtual
// seconds; they are paced in wall time at the configured Speedup.
func (rt *Runtime) Serve(reqs []trace.Request) (*Report, error) {
	rep, err := rt.srv.Serve(reqs)
	if rep == nil {
		return nil, err
	}
	return &rep.Report, err
}

// Telemetry snapshots the sliding-window serving metrics over the trailing
// window virtual seconds. It is safe to call concurrently with Serve, at
// any time; before Serve starts it returns the zero Window.
func (rt *Runtime) Telemetry(window float64) Window { return rt.srv.Telemetry(window) }

// clock maps virtual schedule time onto compressed wall time.
type clock struct {
	start   time.Time
	speedup float64
}

func newClock(speedup float64) clock { return clock{start: time.Now(), speedup: speedup} }

// now returns the current virtual time.
func (c clock) now() float64 { return time.Since(c.start).Seconds() * c.speedup }

// wallAt returns the wall-clock instant of virtual time v.
func (c clock) wallAt(v float64) time.Time {
	return c.start.Add(time.Duration(v / c.speedup * float64(time.Second)))
}

// sleepUntil blocks until virtual time v has passed.
func (c clock) sleepUntil(v float64) {
	if d := time.Until(c.wallAt(v)); d > 0 {
		time.Sleep(d)
	}
}
