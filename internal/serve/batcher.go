package serve

import (
	"time"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/pipeline"
)

// resource is one serial execution unit of the compiled plan — an XPU
// placement group or a CPU retrieval tier. It owns a bounded inbox
// channel and the engine dispatcher that queues, forms and prices its
// batches, and it paces their service on the drift-free virtual ledger.
// Exactly one goroutine (run) touches the dispatcher and ledger, so the
// only shared state is the inbox channel and the metrics collector.
type resource struct {
	dp        *dataplane
	name      string
	inbox     chan item
	disp      *engine.Dispatcher[*request]
	busyUntil float64 // virtual time the resource frees up
}

// run is the worker loop: drain arrivals, pick the most overdue
// dispatchable batch, execute it, repeat; park when nothing is ready.
func (r *resource) run() {
	for {
		r.drain()
		b, ok := r.disp.Pick(r.dp.clock.now())
		if !ok {
			if !r.park() {
				return
			}
			continue
		}
		r.exec(b)
	}
}

// drain moves every waiting inbox entry into its stage queue.
func (r *resource) drain() {
	for {
		select {
		case it := <-r.inbox:
			r.enqueue(it)
		default:
			return
		}
	}
}

func (r *resource) enqueue(it item) {
	depth := r.disp.Push(it.idx, it.q)
	r.dp.coll.enqueued(it.idx, depth)
}

// park blocks until new work arrives, a flush deadline passes, or the
// dataplane shuts down. Returns false on shutdown.
func (r *resource) park() bool {
	var timerC <-chan time.Time
	if deadline, ok := r.disp.Deadline(); ok {
		timer := time.NewTimer(max(time.Until(r.dp.clock.wallAt(deadline)), 0))
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case it := <-r.inbox:
		r.enqueue(it)
		return true
	case <-timerC:
		return true
	case <-r.dp.quit:
		return false
	}
}

// exec serves one picked batch: price it, advance the ledger, sleep out the
// scaled service time (running real retrieval concurrently when
// configured), then hand every member to its next stage. Under chunked
// prefill each member advances at its own chunk boundary instead of batch
// end. The batch's member slice stays valid throughout: only this
// goroutine pushes to the dispatcher, and not before exec returns.
func (r *resource) exec(b engine.Batch[*request]) {
	idx, n := b.Slot, len(b.Members)
	c := r.disp.Price(b)
	bus := r.dp.bus
	if bus.Active() {
		for i, credit := range c.Credits {
			if credit == engine.NoLookup {
				continue
			}
			kind := obs.KindCacheMiss
			if credit > 0 {
				kind = obs.KindCacheHit
			}
			bus.Publish(obs.Event{Kind: kind, T: b.FormV, Req: b.Members[i].ID,
				Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: credit})
		}
	}
	start := max(r.busyUntil, b.FormV)
	done := start + c.Latency
	r.busyUntil = done
	full := r.dp.plan.StepAt(idx).Batch

	if c.Chunks > 0 {
		// Chunk pipelining: member i's first token unblocks as soon as its
		// own chunks are done; the resource stays busy until the last
		// chunk (busyUntil above).
		for i, q := range b.Members {
			md := start + c.DoneAt[i]
			r.dp.clock.sleepUntil(md)
			if bus.Active() {
				bus.Publish(obs.Event{Kind: obs.KindStageStart, T: start, Req: q.ID,
					Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: n})
				bus.Publish(obs.Event{Kind: obs.KindStageFinish, T: md, Req: q.ID,
					Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: n, Dur: c.DoneAt[i]})
			}
			r.dp.advance(q, idx, md)
		}
		r.dp.coll.batchServed(idx, n, full, c.Tok, c.Pad, c.Chunks)
		return
	}

	var search chan searchResult
	sharded := r.dp.opts.Sharded
	head := b.Members[0].ID
	if r.dp.plan.StepAt(idx).Stage.Kind == pipeline.KindRetrieval && r.dp.opts.searchOn() {
		search = make(chan searchResult, 1)
		go r.dp.runSearch(b.Members, search)
		if sharded != nil && bus.Active() {
			bus.Publish(obs.Event{Kind: obs.KindShardScatter, T: start, Req: head,
				Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: sharded.EffectiveFanout(r.dp.plan.Sched.ShardFanout)})
		}
	}
	r.dp.clock.sleepUntil(done)
	if search != nil {
		res := <-search
		if res.err != nil {
			r.dp.onSearchErr(res.err)
		}
		if sharded != nil && bus.Active() {
			if res.fellBack > 0 || res.lost > 0 {
				bus.Publish(obs.Event{Kind: obs.KindShardFallback, T: done, Req: head,
					Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: res.fellBack + res.lost})
			}
			bus.Publish(obs.Event{Kind: obs.KindShardGather, T: done, Req: head,
				Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: sharded.EffectiveFanout(r.dp.plan.Sched.ShardFanout), Dur: c.Latency})
		}
	}
	r.dp.coll.batchServed(idx, n, full, c.Tok, c.Pad, 0)
	if bus.Active() {
		for _, q := range b.Members {
			bus.Publish(obs.Event{Kind: obs.KindStageStart, T: start, Req: q.ID,
				Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: n})
			bus.Publish(obs.Event{Kind: obs.KindStageFinish, T: done, Req: q.ID,
				Slot: idx, Stage: r.dp.slotName[idx], Track: r.name, N: n, Dur: c.Latency})
		}
	}
	for _, q := range b.Members {
		r.dp.advance(q, idx, done)
	}
}
