package engine

import (
	"math"
	"sort"

	"rago/internal/cache"
	"rago/internal/obs"
	"rago/internal/pipeline"
	"rago/internal/trace"
)

// The request-level state machine. A Core runs one compiled plan over a
// trace: admission and MaxInFlight shedding, the answer tier, the stage
// graph's joins and entry routing, one Dispatcher per resource, the
// decode-slot FIFO and lease, the §5.3 park → round → resume chain, and
// every request-level obs event. It is clock-free and single-goroutine, so
// the only thing a driver decides is when each event is handled. Every run
// drives its cores through one Loop (loop.go): sim.ServeSim and the
// controller's replay (control.SimReplay) run it to the end, serve.Server
// advances it on the wall clock, and all three make the same decisions over
// the same compiled plans and publish the same stream.
//
// A core handles its events in (virtual time, seq) order. A dispatch
// reserves a seq per member finish plus the resource's free, an enqueue
// one for a flush check at its deadline, a decode stop one; but the heap
// holds only what can act: a batch in service is one entry (finish), and
// an idle resource arms one flush check, not one per enqueue (arm).

// Ledger is the per-request state of one trace run, indexed by trace
// position: pending-predecessor counts, TTFT, decode start and decode slot,
// plus the run's admission bound, in-flight count and arrival cursor. Every
// Core serving the trace shares it — the live runtime runs one Core per plan
// epoch, and a request keeps its state on the epoch that admitted it — so it
// is allocated once per run. State with a shorter life lives where it is
// bounded: enqueue times beside the queue entries (Dispatcher), decode walks
// in the admitting Core's decode slots.
type Ledger struct {
	reqs  []trace.Request
	order []int // admission order when reqs is not sorted by arrival
	next  int

	bound, inflight int

	nSteps  int
	pending []int32 // [r*nSteps+stage]
	state   []reqState
}

// reqState is a request's TTFT, decode start and the index of the decode
// slot it holds, in the slot table of the Core that admitted it.
type reqState struct {
	ttft, decStart float64
	slot           int32
}

// NewLedger sizes the ledger for reqs under plan p's stage graph (every
// plan a Core runs against it must be CompatibleWith p). maxInFlight is the
// admission bound; 0 admits the whole trace.
func NewLedger(p *Plan, reqs []trace.Request, maxInFlight int) *Ledger {
	n := len(reqs)
	l := &Ledger{reqs: reqs, bound: maxInFlight, nSteps: len(p.Steps),
		pending: make([]int32, n*len(p.Steps)), state: make([]reqState, n)}
	for i := 1; i < n; i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			l.order = make([]int, n)
			for j := range l.order {
				l.order[j] = j
			}
			sort.SliceStable(l.order, func(a, b int) bool { return reqs[l.order[a]].Arrival < reqs[l.order[b]].Arrival })
			break
		}
	}
	return l
}

// NextArrival returns when the trace's next request arrives, in (arrival,
// trace index) order, and false once every request has arrived.
func (l *Ledger) NextArrival() (float64, bool) {
	if l.next == len(l.reqs) {
		return 0, false
	}
	return l.ArrivalAt(l.next), true
}

// ArrivalAt returns when the trace's i-th arrival, in (arrival, trace
// index) order, arrives. It reads only the immutable trace, so it is safe
// beside a running Core.
func (l *Ledger) ArrivalAt(i int) float64 { return l.reqs[l.arrival(i)].Arrival }

// arrival returns the trace index of the i-th arrival.
func (l *Ledger) arrival(i int) int {
	if l.order != nil {
		return l.order[i]
	}
	return i
}

// Trace returns request r's trace entry.
func (l *Ledger) Trace(r int) *trace.Request { return &l.reqs[r] }

// Completion is one finished request as a Core reports it.
type Completion struct {
	// At is the completion time; TTFT, TPOT, Latency and Stall are the
	// request's measured latencies (all 0 for an answer-tier hit).
	At, TTFT, TPOT, Latency, Stall float64
	// Hit marks an answer-tier hit: completed at arrival, no decode slot.
	Hit bool
}

// Sink receives what a Core did that its driver accounts for. Each call
// happens at the virtual time of the event being handled.
type Sink interface {
	// Arrived reports request r arriving: admitted, or shed by the bound.
	Arrived(r int, admitted bool)
	// Enqueued reports request r entering slot's queue, which now holds
	// depth requests (depth 1: r heads it); at the decode slot depth counts
	// the sequences waiting for a slot (0 when a slot was free).
	Enqueued(r, slot, depth int)
	// Dispatched reports resource res starting batch b at virtual time at
	// with cost c. b.Members and c's slices are valid only during the call.
	Dispatched(res int, b Batch, c BatchCost, at float64)
	// Completed reports request r finishing.
	Completed(r int, c Completion)
}

// Core is the request-level state machine of one plan (see the top of this
// file). Not safe for concurrent use.
type Core struct {
	plan  *Plan
	led   *Ledger
	sink  Sink
	bus   *obs.Bus
	cache *cache.Cache // its answer tier short-circuits admissions
	flush float64

	disp      []*Dispatcher
	stations  []station // per resource, beside disp
	preds     []int32   // per-stage predecessor counts
	held      int       // admitted requests not yet completed
	dec       []Seq     // the decode slots' walks, Sched.DecodeBatch of them
	decFree   []int32   // free decode slots, a stack
	decWait   queue     // sequences waiting for a decode slot
	heap      eventHeap
	seq       int // the next event's seq
	pos       int // seq of the event being handled; -1 while admitting
	slotName  []string
	slotTrack []string
}

// station is one resource's state beside its Dispatcher: the batch in
// service (copies of its members, their finish offsets then its service
// time, its start, slot, first reserved seq and next finish), and its flush
// checks, due[head:] in (at, seq) order, armed the seq last pushed.
type station struct {
	busy             bool
	members          []int
	doneAt           []float64
	start            float64
	slot, base, next int
	due              []event
	head, armed      int
}

// NewCore builds plan p's core over ledger l. flush is the partial-batch
// flush timeout (virtual seconds), c the reuse cache (nil for none: its
// prefix tier prices batches, its answer tier short-circuits admissions),
// bus the event sink (nil publishes nothing) and sink the driver's.
func NewCore(p *Plan, l *Ledger, flush float64, c *cache.Cache, bus *obs.Bus, sink Sink) *Core {
	nDec := p.Sched.DecodeBatch
	k := &Core{plan: p, led: l, sink: sink, bus: bus, cache: c, flush: flush,
		dec: make([]Seq, nDec), decFree: make([]int32, nDec),
		disp: make([]*Dispatcher, len(p.Resources)), stations: make([]station, len(p.Resources)),
		preds: make([]int32, len(p.Steps)), slotName: p.SlotNames(), slotTrack: p.TrackNames()}
	for i := range k.decFree {
		k.decFree[i] = int32(i)
	}
	for ri := range k.disp {
		k.disp[ri] = NewDispatcher(p, ri, flush, c, l)
		k.stations[ri].armed = -1
	}
	for st, ps := range p.Preds {
		k.preds[st] = int32(len(ps))
	}
	return k
}

// Next returns when the core's earliest pending event is due, and false
// when it has none.
func (k *Core) Next() (float64, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// Admit handles the ledger's next arrival (NextArrival) at its arrival
// time: it is shed when the ledger's MaxInFlight requests are already in
// flight, completed on the spot by an exact-match answer-tier hit, and
// otherwise routed to the plan's entry stages.
func (k *Core) Admit() {
	l := k.led
	r := l.arrival(l.next)
	l.next++
	q := &l.reqs[r]
	now := q.Arrival
	k.pos = -1
	if l.bound > 0 && l.inflight >= l.bound {
		if k.bus.Active() {
			k.bus.Publish(obs.Event{Kind: obs.KindReject, T: now, Req: q.ID})
		}
		k.sink.Arrived(r, false)
		return
	}
	l.inflight++
	k.held++
	if k.bus.Active() {
		k.bus.Publish(obs.Event{Kind: obs.KindAdmit, T: now, Req: q.ID})
	}
	k.sink.Arrived(r, true)
	if k.cache.AnswerOn() && q.Tagged() && k.cache.AnswerLookup(q.ChunkIDs, q.PromptTokens, q.OutputTokens) {
		if k.bus.Active() {
			k.bus.Publish(obs.Event{Kind: obs.KindCacheAnswerHit, T: now, Req: q.ID})
		}
		l.inflight--
		k.held--
		k.sink.Completed(r, Completion{At: now, Hit: true})
		return
	}
	copy(l.pending[r*l.nSteps:], k.preds)
	for _, idx := range k.plan.Entries {
		k.ready(r, idx, now)
	}
}

// event kinds.
const (
	evBatch = iota
	evFlush
	evDecodePark
	evDecodeDone
)

// event is one heap entry: a batch in service, at its next member's
// finish or its end; an armed flush check; or a decode stop. at and seq
// order it; a is its resource, or its request for a decode stop.
type event struct {
	at      float64
	kind, a int
	seq     int
}

func (k *Core) push(at float64, kind, a int) {
	k.heap.push(event{at: at, kind: kind, a: a, seq: k.seq})
	k.seq++
}

// Step handles the earliest pending event.
func (k *Core) Step() {
	e := k.heap.pop()
	p, l, now := k.plan, k.led, e.at
	k.pos = e.seq
	switch e.kind {
	case evBatch:
		k.finish(e.a, now)
	case evFlush:
		k.trySchedule(e.a, now)
	case evDecodePark:
		// The sequence reached a trigger position: park it (slot held) and
		// queue the iterative retrieval half of the round.
		if k.bus.Active() {
			k.bus.Publish(obs.Event{Kind: obs.KindDecodePark, T: now, Req: l.reqs[e.a].ID,
				Slot: p.DecodeIdx, Stage: "decode", Track: "decode", N: k.dec[l.state[e.a].slot].Rounds})
		}
		k.ready(e.a, p.IterRetrievalSlot(), now)
	case evDecodeDone:
		k.complete(e.a, now)
	}
}

// finish handles resource res's batch at now, its next finish: members
// finishing by now move on in order, then the resource frees once service
// ends. Same-instant finishes hold consecutive seqs, so nothing orders
// between them; the first one still ahead re-queues the entry at its seq.
func (k *Core) finish(res int, now float64) {
	st := &k.stations[res]
	for ; st.start+st.doneAt[st.next] <= now; st.next++ {
		if st.next == len(st.members) {
			st.busy = false
			k.trySchedule(res, now)
			return
		}
		k.stageDone(st.members[st.next], st.slot, now)
	}
	k.heap.push(event{at: st.start + st.doneAt[st.next], kind: evBatch, a: res, seq: st.base + st.next})
}

// stageDone moves request r past slot idx, which finished at now. The
// iterative round's slots chain outside the stage graph: retrieval feeds
// prefix, and prefix resumes the parked sequence.
func (k *Core) stageDone(r, idx int, now float64) {
	p, l := k.plan, k.led
	st := &l.state[r]
	if p.Round != nil {
		switch idx {
		case p.IterRetrievalSlot():
			k.ready(r, p.IterPrefixSlot(), now)
			return
		case p.IterPrefixSlot():
			seq := &k.dec[st.slot]
			stall := seq.Resume(now)
			if k.bus.Active() {
				k.bus.Publish(obs.Event{Kind: obs.KindDecodeResume, T: now, Req: l.reqs[r].ID,
					Slot: p.DecodeIdx, Stage: "decode", Track: "decode", N: seq.Rounds, Dur: stall})
			}
			k.advance(r, now)
			return
		}
	}
	if idx == p.PrefixIdx {
		st.ttft = now - l.reqs[r].Arrival
	}
	pending := l.pending[r*l.nSteps : (r+1)*l.nSteps]
	for _, succ := range p.Succs[idx] {
		if pending[succ]--; pending[succ] == 0 {
			k.ready(r, succ, now)
		}
	}
}

// ready queues request r at slot idx and lets its resource dispatch.
func (k *Core) ready(r, idx int, now float64) {
	p, l := k.plan, k.led
	if k.bus.Active() {
		k.bus.Publish(obs.Event{Kind: obs.KindEnqueue, T: now, Req: l.reqs[r].ID,
			Slot: idx, Stage: k.slotName[idx], Track: k.slotTrack[idx]})
	}
	if idx == p.DecodeIdx {
		// Continuous batching: each of the DecodeBatch slots holds one
		// sequence for its full generation — iterative parks included —
		// and is refilled only on completion (the profiled latency already
		// assumes all slots decode concurrently).
		if len(k.decFree) > 0 {
			k.sink.Enqueued(r, idx, 0)
			k.lease(r, now)
		} else {
			k.decWait.push(r, now)
			k.sink.Enqueued(r, idx, k.decWait.Len())
		}
		return
	}
	res := p.StepAt(idx).Resource
	k.sink.Enqueued(r, idx, k.disp[res].Push(idx, r, now))
	if k.flush > 0 {
		// The enqueue's flush check (see arm; with no timeout all is ripe at
		// once), nudged past the deadline: it must see headAge >= flush
		// despite float rounding, or a tail partial batch with no later
		// arrivals stalls forever. The relative term keeps the nudge above
		// one ulp at large trace times, where 1e-9 alone would be absorbed.
		ft := now + k.flush
		k.stations[res].reserve(now, event{at: ft + 1e-9 + ft*1e-12, kind: evFlush, a: res, seq: k.seq})
	}
	k.seq++
	k.trySchedule(res, now)
}

// reserve appends flush deadline e, reserved at now, first dropping the
// deadlines already passed.
func (st *station) reserve(now float64, e event) {
	for st.head < len(st.due) && st.due[st.head].at < now {
		st.head++
	}
	if h := st.head; h == len(st.due) || h >= 64 && 2*h >= len(st.due) {
		st.due, st.head = st.due[:copy(st.due, st.due[h:])], 0
	}
	st.due = append(st.due, e)
}

// arm pushes the next flush check that can act on resource res, idle with
// nothing ripe at now. A check acts only if it finds the resource idle and
// a queue head aged past the timeout; else Pick mutates nothing (Form
// touches only scratch). Until the resource's state changes, which arms
// anew, that is the first reserved check after the event being handled
// whose deadline ages the oldest head past the timeout. Heads only get
// younger, so the checks before it are dropped; with no head, none is.
func (k *Core) arm(res int, now float64) {
	oldest := k.disp[res].oldest()
	if math.IsInf(oldest, 1) {
		return
	}
	st := &k.stations[res]
	for ; st.head < len(st.due); st.head++ {
		if e := st.due[st.head]; (e.at > now || e.at == now && e.seq > k.pos) && e.at-oldest >= k.flush {
			if st.armed != e.seq {
				st.armed = e.seq
				k.heap.push(e)
			}
			return
		}
	}
}

// trySchedule dispatches a batch on resource res if it is idle and
// something is ripe, and arms its flush check if nothing is.
func (k *Core) trySchedule(res int, now float64) {
	st := &k.stations[res]
	if st.busy {
		return
	}
	b, ok := k.disp[res].Pick(now)
	if !ok {
		k.arm(res, now)
		return
	}
	st.busy = true
	c := k.disp[res].Price(b)
	if k.bus.Active() {
		k.publishBatch(res, b, c, now)
	}
	k.sink.Dispatched(res, b, c, now)
	st.members = append(st.members[:0], b.Members...)
	st.doneAt = append(append(st.doneAt[:0], c.DoneAt...), c.Latency)
	st.start, st.slot, st.base, st.next = now, b.Slot, k.seq, 0
	k.seq += len(b.Members) + 1
	k.heap.push(event{at: now + c.DoneAt[0], kind: evBatch, a: res, seq: st.base})
}

// publishBatch publishes one dispatched batch: each member's prefix-cache
// verdict, the scatter-gather bracket of a sharded retrieval batch (one
// scatter at dispatch, one gather at the modeled finish, N the shards
// consulted), and every member's stage start and finish.
func (k *Core) publishBatch(res int, b Batch, c BatchCost, now float64) {
	p, reqs := k.plan, k.led.reqs
	track, stage := p.Resources[res].Name, k.slotName[b.Slot]
	for i, credit := range c.Credits {
		if credit == NoLookup {
			continue
		}
		kind := obs.KindCacheMiss
		if credit > 0 {
			kind = obs.KindCacheHit
		}
		k.bus.Publish(obs.Event{Kind: kind, T: now, Req: reqs[b.Members[i]].ID,
			Slot: b.Slot, Stage: stage, Track: track, N: credit})
	}
	if p.Shards() > 1 && p.StepAt(b.Slot).Stage.Kind == pipeline.KindRetrieval {
		id, fo := reqs[b.Members[0]].ID, p.EffectiveFanout()
		k.bus.Publish(obs.Event{Kind: obs.KindShardScatter, T: now, Req: id,
			Slot: b.Slot, Stage: stage, Track: track, N: fo})
		k.bus.Publish(obs.Event{Kind: obs.KindShardGather, T: now + c.Latency, Req: id,
			Slot: b.Slot, Stage: stage, Track: track, N: fo, Dur: c.Latency})
	}
	n := len(b.Members)
	for i, r := range b.Members {
		k.bus.Publish(obs.Event{Kind: obs.KindStageStart, T: now, Req: reqs[r].ID,
			Slot: b.Slot, Stage: stage, Track: track, N: n})
		k.bus.Publish(obs.Event{Kind: obs.KindStageFinish, T: now + c.DoneAt[i], Req: reqs[r].ID,
			Slot: b.Slot, Stage: stage, Track: track, N: n, Dur: c.DoneAt[i]})
	}
}

// lease gives request r a free decode slot at now and starts its decode
// walk there.
func (k *Core) lease(r int, now float64) {
	p, l := k.plan, k.led
	st, n := &l.state[r], len(k.decFree)-1
	st.decStart, st.slot, k.decFree = now, k.decFree[n], k.decFree[:n]
	k.dec[st.slot] = p.Seq(l.reqs[r])
	if k.bus.Active() {
		k.bus.Publish(obs.Event{Kind: obs.KindDecodeLease, T: now, Req: l.reqs[r].ID,
			Slot: p.DecodeIdx, Stage: k.slotName[p.DecodeIdx], Track: "decode"})
	}
	k.advance(r, now)
}

// advance schedules request r's next decode stop from now: a park at its
// next trigger position, or its finish.
func (k *Core) advance(r int, now float64) {
	if at, park := k.dec[k.led.state[r].slot].Advance(now); park {
		k.push(at, evDecodePark, r)
	} else {
		k.push(at, evDecodeDone, r)
	}
}

// complete retires request r, whose generation finished at now, and hands
// its decode slot to the longest-waiting sequence.
func (k *Core) complete(r int, now float64) {
	p, l := k.plan, k.led
	q, st := &l.reqs[r], &l.state[r]
	l.inflight--
	k.held--
	if k.bus.Active() {
		k.bus.Publish(obs.Event{Kind: obs.KindDecodeFinish, T: now, Req: q.ID,
			Slot: p.DecodeIdx, Stage: "decode", Track: "decode", Dur: now - st.decStart})
	}
	c := Completion{At: now, TTFT: st.ttft, Latency: now - q.Arrival, Stall: k.dec[st.slot].Stall}
	if out := p.GenTokens(q.OutputTokens); out > 0 {
		c.TPOT = (now - st.decStart) / float64(out)
	}
	k.sink.Completed(r, c)
	if k.cache.AnswerOn() && q.Tagged() {
		k.cache.AnswerStore(q.ChunkIDs, q.PromptTokens, q.OutputTokens)
	}
	k.decFree = append(k.decFree, st.slot)
	if k.decWait.Len() > 0 {
		k.lease(k.decWait.pop(), now)
	}
}

// before reports whether e orders ahead of o. (at, seq) is a total order —
// no two pending entries share a seq — so the pop sequence of any correct
// heap is the same fully sorted sequence.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap over events. container/heap
// funnels every Push and Pop through interface{}, which boxes one event per
// call: two heap allocations per simulated event.
type eventHeap []event

func (h *eventHeap) push(e event) {
	hs := append(*h, e)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hs[i].before(hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *eventHeap) pop() event {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && hs[r].before(hs[c]) {
			c = r
		}
		if !hs[c].before(hs[i]) {
			break
		}
		hs[i], hs[c] = hs[c], hs[i]
		i = c
	}
	return top
}
