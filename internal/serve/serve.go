// Package serve executes RAGO schedules for real: NewServer turns a
// compiled execution plan (internal/engine) straight out of the optimizer
// into a live serving runtime, Server, and Serve replays open-loop request
// traces through it under wall-clock pacing.
//
// The runtime drives engine.Core, the request-level state machine, through
// engine.Loop, the same arrival/epoch merge loop the discrete-event
// simulator (sim.ServeSim) and the controller's replay (control.SimReplay)
// run to the end. The core makes every decision — admission and
// MaxInFlight shedding, the answer tier, stage-graph joins, batch
// formation and pricing on each serial resource, decode-slot leasing, the
// §5.3 park/round/resume loop — and publishes every request-level obs
// event. Server.Serve advances the loop on the calling goroutine: it reads
// the wall clock once per wake, handles every due arrival and core event in
// virtual-time order, and sleeps to the next one's wall instant, one
// virtual second being 1/Speedup wall seconds. Decisions are made at each
// event's virtual time, never at a wall-derived "now", and a Switch takes
// effect at a virtual instant no handled arrival has reached, so a run is
// the simulator's run of the same plan epochs plus sleeping: measured
// latencies reflect the schedule, not OS timer jitter.
//
// What stays concurrent is what is concurrent: real vector search runs on
// goroutines beside the driver (a Searcher batch from its dispatch, each
// query of a Sharded batch from when its request joins the batch), and a
// batch's members advance only once its search has returned; bus
// subscribers consume on their own goroutines. The controller's ticks and
// the Window stream are timers of the loop itself (Server.At), so they too
// happen at the same virtual instants at any speedup.
//
// A run's counts, rates, per-stage batching and end come from one
// engine.Tally, the account the simulator and the controller's replay read
// too; the collector keeps only per-completion samples and real-search
// stats.
package serve

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/pipeline"
	"rago/internal/retrieval"
	"rago/internal/vectordb"
)

// SearchFunc executes one batch of real vector-search queries on the
// retrieval serving path (e.g. a closure over vectordb.IVFPQ.SearchBatch).
// It runs concurrently with the modeled retrieval latency; its wall time is
// reported so the substrate can be compared against the analytical model.
// The query vectors live in storage the runtime reuses for later batches, so
// they are valid only until the function returns.
type SearchFunc func(queries [][]float32) ([][]vectordb.Result, error)

// Options configures a Server.
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
	// so no consumer can ever stall the runtime.
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
	// Sharded, when set, runs each retrieval batch's queries through the
	// real sharded scatter-gather instead of a flat Searcher: per-shard
	// top-k on a healthy replica of every consulted shard (round-robin
	// with failure fallback), merged exactly, each query as soon as its
	// request joins the batch. The compiled schedule's NProbe and
	// ShardFanout knobs drive the probe count and fanout, and a degraded
	// batch emits a shard-fallback event on Bus. Mutually exclusive with
	// Searcher; requires QueryDim.
	Sharded *vectordb.Sharded
	// SearchK is the per-query neighbor count for Sharded (0 means 10,
	// the recall@10 evaluation point).
	SearchK int
	// QueryDim is the dimensionality of synthesized queries for Searcher.
	QueryDim int
	// QuerySeed makes synthesized query batches deterministic: a batch
	// headed by request ID h searches the queries of one math/rand/v2 PCG
	// seeded (QuerySeed+h, QuerySeed+h), Float32()*10 per coordinate, so
	// every coordinate lies in [0, 10).
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
	if o.Searcher != nil && o.Sharded != nil {
		return fmt.Errorf("serve: Searcher and Sharded are mutually exclusive")
	}
	if o.searchOn() && o.QueryDim < 1 {
		set := "Searcher"
		if o.Sharded != nil {
			set = "Sharded"
		}
		return fmt.Errorf("serve: %s requires a positive QueryDim", set)
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

// searchBuf is one retrieval batch's query storage, reused across batches:
// the generator (a PCG reseeded in O(1) per batch, and its Rand), the flat
// array the queries are drawn into, their row views, the per-query scatter
// plans (whose Consulted slices the sharded index refills in place), and
// each unit's error and duration.
type searchBuf struct {
	pcg     rand.PCG
	rng     *rand.Rand
	flat    []float32
	queries [][]float32
	infos   []vectordb.ShardQuery
	errs    []error
	durs    []time.Duration
}

// search is one retrieval batch's real search. Its queries are one stream
// seeded by the batch's head request, drawn as soon as the head is known
// (when it enters an empty queue, else at dispatch), and searched as units
// of work: on a Sharded index one query each, claimable as soon as the
// query's request joins the batch — a FIFO queue's first Batch entries form
// its next batch — and otherwise the whole batch through the Searcher, from
// dispatch. Goroutines claim units as they become known; when the members
// are due to advance the driver claims the rest and waits for every unit to
// return.
type search struct {
	plan       *engine.Plan
	slot, head int // head is the first member's request ID
	prep       sync.Once
	buf        *searchBuf
	known      atomic.Int32 // units that may be claimed
	next       atomic.Int32 // next unit to claim
	// searched gets one token per searched unit; it buffers a full batch's
	// units, so no send blocks.
	searched chan struct{}

	// Set at dispatch; the driver's.
	members, units int
	done           float64 // when the batch's members advance
	fallback       obs.Event
}

func queriesPer(p *engine.Plan) int { return max(p.Pipe.Schema.QueriesPerRetrieval, 1) }

func (s *Server) newSearch(p *engine.Plan, slot, head int) *search {
	return &search{plan: p, slot: slot, head: head,
		searched: make(chan struct{}, p.StepAt(slot).Batch*queriesPer(p))}
}

// joined starts drawing the queries of the batch request r heads when it
// enters slot's queue at depth 1, and on a Sharded index makes r's query
// claimable when it belongs to that batch.
func (s *Server) joined(e *epoch, r, slot, depth int) {
	p := e.plan
	if !s.opts.searchOn() || p.StepAt(slot).Stage.Kind != pipeline.KindRetrieval {
		return
	}
	if depth == 1 {
		if e.ahead == nil {
			e.ahead = make([]*search, p.NumSlots())
		}
		e.ahead[slot] = s.newSearch(p, slot, s.led.Trace(r).ID)
	}
	if e.ahead == nil || e.ahead[slot] == nil || depth > p.StepAt(slot).Batch {
		return
	}
	if s.opts.Sharded != nil {
		e.ahead[slot].known.Store(int32(depth * queriesPer(p)))
	} else if depth > 1 {
		return
	}
	go s.work(e.ahead[slot])
}

// startSearch makes all of batch b's units claimable, on resource res of
// e's plan. Its members advance at virtual time done, once they returned.
func (s *Server) startSearch(e *epoch, res int, b engine.Batch, done float64) {
	p, head := e.plan, s.led.Trace(b.Members[0]).ID
	var sr *search
	if e.ahead != nil {
		sr, e.ahead[b.Slot] = e.ahead[b.Slot], nil
	}
	if sr == nil || sr.head != head {
		sr = s.newSearch(p, b.Slot, head)
	}
	sr.members, sr.units, sr.done = len(b.Members), 1, done
	if s.opts.Sharded != nil {
		sr.units = sr.members * queriesPer(p)
	}
	sr.known.Store(int32(sr.units))
	sr.fallback = obs.Event{Kind: obs.KindShardFallback, T: done, Req: head, Slot: b.Slot,
		Stage: p.SlotName(b.Slot), Track: p.Resources[res].Name}
	go s.work(sr)
	s.searches = append(s.searches, sr)
}

// awaitSearches finishes every search whose batch advances by virtual time
// t: the driver searches the units still unclaimed, waits for the rest and
// records the outcome.
func (s *Server) awaitSearches(t float64) {
	k := 0
	for _, sr := range s.searches {
		if sr.done > t {
			s.searches[k] = sr
			k++
			continue
		}
		s.work(sr)
		for range sr.units {
			<-sr.searched
		}
		s.finish(sr)
	}
	clear(s.searches[k:])
	s.searches = s.searches[:k]
}

// work draws the batch's queries unless that is done, then searches units
// until none it may claim is left: query i against the Sharded index's
// scatter-gather at the plan's nprobe and fanout, or the whole batch
// through the Searcher.
func (s *Server) work(sr *search) {
	sr.prep.Do(func() { s.prepare(sr) })
	b, p := sr.buf, sr.plan
	for {
		i := sr.next.Load()
		if i >= sr.known.Load() {
			return
		}
		if !sr.next.CompareAndSwap(i, i+1) {
			continue
		}
		start := time.Now()
		if sh := s.opts.Sharded; sh != nil {
			k := s.opts.SearchK
			if k == 0 {
				k = 10
			}
			np := p.Sched.NProbe
			if np <= 0 {
				// Knob off means the tier's base configuration, same as the
				// analytic cost model's DB.Tuned.
				np = retrieval.BaseNProbe
			}
			_, b.errs[i] = sh.Search(b.queries[i], k, np, p.Sched.ShardFanout, &b.infos[i])
		} else {
			_, b.errs[i] = s.opts.Searcher(b.queries[:sr.members*queriesPer(p)])
		}
		b.durs[i] = time.Since(start)
		sr.searched <- struct{}{}
	}
}

// prepare draws the queries of a full batch headed by sr.head (the batch
// uses its members' prefix): the buffer's PCG, reseeded (s, s) with s =
// QuerySeed + the head's request ID, gives Float32()*10 per coordinate.
func (s *Server) prepare(sr *search) {
	n := sr.plan.StepAt(sr.slot).Batch * queriesPer(sr.plan)
	dim, seed := s.opts.QueryDim, uint64(s.opts.QuerySeed+int64(sr.head))
	buf, _ := s.searchBufs.Get().(*searchBuf)
	if buf == nil {
		buf = new(searchBuf)
		buf.rng = rand.New(&buf.pcg)
	}
	buf.pcg.Seed(seed, seed)
	buf.flat = slices.Grow(buf.flat[:0], n*dim)[:n*dim]
	buf.queries = slices.Grow(buf.queries[:0], n)[:n]
	for i := range buf.flat {
		buf.flat[i] = buf.rng.Float32() * 10
	}
	for i := range buf.queries {
		buf.queries[i] = buf.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	buf.infos = slices.Grow(buf.infos[:0], n)[:n]
	buf.errs = slices.Grow(buf.errs[:0], n)[:n]
	buf.durs = slices.Grow(buf.durs[:0], n)[:n]
	sr.buf = buf
}

// finish records a searched batch: its search time (the units' durations
// summed), its first error, and the scatter-gather's degradation — replica
// picks that skipped an unhealthy replica and consulted shards merged
// without, every replica down.
func (s *Server) finish(sr *search) {
	b := sr.buf
	var wall time.Duration
	for i := range sr.units {
		wall += b.durs[i]
		if err := b.errs[i]; err != nil && s.searchErr == nil {
			s.searchErr = err
		}
	}
	fellBack, lost := 0, 0
	for _, info := range b.infos[:sr.units] {
		if info.FellBack {
			fellBack++
		}
		lost += info.Lost
	}
	s.coll.searched(sr.members*queriesPer(sr.plan), wall.Seconds(), fellBack, lost)
	if fellBack+lost > 0 && s.opts.Bus.Active() {
		sr.fallback.N = fellBack + lost
		s.opts.Bus.Publish(sr.fallback)
	}
	s.searchBufs.Put(b)
}

// clock maps virtual schedule time onto compressed wall time.
type clock struct {
	start   time.Time
	speedup float64
}

func newClock(speedup float64) clock { return clock{start: time.Now(), speedup: speedup} }

// now returns the current virtual time.
func (c clock) now() float64 { return time.Since(c.start).Seconds() * c.speedup }

// sleepUntil blocks until virtual time v has passed.
func (c clock) sleepUntil(v float64) {
	time.Sleep(time.Until(c.start.Add(time.Duration(v / c.speedup * float64(time.Second)))))
}
