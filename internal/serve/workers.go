package serve

import (
	"rago/internal/obs"
)

// decodeTier is the continuous-batching decode pool. The plan's
// DecodeBatch slots are a bounded channel of slot leases, each lease
// carrying the virtual time its slot frees up: acquiring a lease and
// max-ing it with the request's queue-exit time gives the drift-free start
// of that sequence's generation. Each admitted sequence occupies its slot
// for the full profiled generation latency (the profile already assumes
// all slots decode concurrently), sleeping it out in scaled wall time on
// its own goroutine — so up to DecodeBatch generations genuinely overlap.
//
// On iterative plans (§5.3) a sequence additionally owns a decode loop:
// it decodes at the plan's per-token step pace until a trigger position,
// parks — holding its slot, exactly like the token-level simulator and
// the analytical fixed point assume — while a retrieval+prefix round runs
// through the iterative batcher slots on the regular workers, then
// resumes at the round's finish time. The parked seconds accumulate as
// the sequence's stall.
type decodeTier struct {
	dp    *dataplane
	inbox chan *request
	slots chan float64 // free-at virtual times; cap == DecodeBatch
}

func (d *decodeTier) start(bound int) {
	d.inbox = make(chan *request, bound)
	batch := d.dp.plan.Sched.DecodeBatch
	d.slots = make(chan float64, batch)
	for i := 0; i < batch; i++ {
		d.slots <- 0
	}
}

// run admits queued sequences into free slots in arrival order.
func (d *decodeTier) run() {
	decIdx := d.dp.plan.DecodeIdx
	for {
		var q *request
		select {
		case q = <-d.inbox:
		case <-d.dp.quit:
			return
		}
		var free float64
		select {
		case free = <-d.slots:
		case <-d.dp.quit:
			return
		}
		q.decStart = max(free, q.enqV[decIdx])
		if d.dp.bus.Active() {
			d.dp.bus.Publish(obs.Event{Kind: obs.KindDecodeLease, T: q.decStart, Req: q.ID,
				Slot: decIdx, Stage: d.dp.slotName[decIdx], Track: "decode"})
		}
		go d.generate(q)
	}
}

// generate runs one sequence's decode walk (engine.Seq) in wall time: a
// single sleep for its own generation on single-retrieval plans, or the
// §5.3 decode loop — decode to each trigger, park for an iterative
// retrieval+prefix round, resume — on iterative ones. The sequence holds
// its decode slot throughout, parks included (continuous batching refills
// slots only on completion), and frees it at its own output length, which
// is what makes saturation throughput DecodeBatch over the mean stalled
// generation time, as the shape-weighted analytical model prices it.
func (d *decodeTier) generate(q *request) {
	q.seq = d.dp.plan.Seq(*q.Request)
	t := q.decStart
	for {
		at, park := q.seq.Advance(t)
		if !park {
			d.finish(q, at)
			return
		}
		d.dp.clock.sleepUntil(at)
		if d.dp.bus.Active() {
			d.dp.bus.Publish(obs.Event{Kind: obs.KindDecodePark, T: at, Req: q.ID,
				Slot: d.dp.plan.DecodeIdx, Stage: "decode", Track: "decode", N: q.seq.Rounds})
		}
		d.dp.submit(q, d.dp.plan.IterRetrievalSlot(), at)
		t = <-q.resume
		stall := q.seq.Resume(t)
		if d.dp.bus.Active() {
			d.dp.bus.Publish(obs.Event{Kind: obs.KindDecodeResume, T: t, Req: q.ID,
				Slot: d.dp.plan.DecodeIdx, Stage: "decode", Track: "decode",
				N: q.seq.Rounds, Dur: stall})
		}
	}
}

// finish sleeps out the remainder of one sequence's generation, returns
// the slot lease, and retires the request.
func (d *decodeTier) finish(q *request, done float64) {
	d.dp.clock.sleepUntil(done)
	if d.dp.bus.Active() {
		d.dp.bus.Publish(obs.Event{Kind: obs.KindDecodeFinish, T: done, Req: q.ID,
			Slot: d.dp.plan.DecodeIdx, Stage: "decode", Track: "decode",
			Dur: done - q.decStart})
	}
	d.slots <- done
	d.dp.complete(q, done)
}
