package engine

import (
	"math"
	"math/bits"
	"slices"

	"rago/internal/cache"
	"rago/internal/trace"
)

// The dispatch decisions. Core (core.go) makes every batching and
// decode-loop decision through the types in this file: which stage slot a
// serial resource serves next, which waiting requests form the batch, what
// the batch costs (prefix-cache credits, shaped or chunked prefill), and
// where each sequence parks for an iterative round. The types are
// clock-free and single-goroutine.

// queue is a FIFO of ledger indices, each beside the virtual time it was
// queued, with a consumed-head offset: dispatch advances the offset instead
// of re-copying the tail, and the storage resets to the front whenever the
// queue drains, so it is bounded by the backlog, not the trace. A stage
// slot's queue is the FormView its Former decides over; a bucketed slot has
// one per bucket.
type queue struct {
	buf  []entry
	head int
	led  *Ledger
}

// entry is one queued request and its enqueue time.
type entry struct {
	r  int
	at float64
}

func (q *queue) Len() int                 { return len(q.buf) - q.head }
func (q *queue) EnqueuedAt(i int) float64 { return q.buf[q.head+i].at }
func (q *queue) PromptTokens(i int) int   { return q.led.Trace(q.buf[q.head+i].r).PromptTokens }

// push appends r, queued at virtual time at, first compacting a mostly
// consumed queue, so a backlog that never fully drains cannot grow the
// storage without bound. Full storage doubles, so growth allocates
// O(log peak).
func (q *queue) push(r int, at float64) {
	if c := q.head; c >= 64 && 2*c >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[c:])]
		q.head = 0
	}
	if len(q.buf) == cap(q.buf) {
		q.buf = slices.Grow(q.buf, len(q.buf)+1)
	}
	q.buf = append(q.buf, entry{r, at})
}

// pop consumes the head entry and returns its request.
func (q *queue) pop() int {
	r := q.buf[q.head].r
	q.consume(1)
	return r
}

// popN consumes the first n entries, appending their requests to out.
func (q *queue) popN(n int, out []int) []int {
	for _, e := range q.buf[q.head : q.head+n] {
		out = append(out, e.r)
	}
	q.consume(n)
	return out
}

// consume advances the head past n entries, resetting drained storage.
func (q *queue) consume(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// popSel consumes the entries at the given head-relative positions
// (ascending, as formation policies return them), appending their requests
// to out and compacting the survivors in place.
func (q *queue) popSel(sel []int, out []int) []int {
	for _, p := range sel {
		out = append(out, q.buf[q.head+p].r)
	}
	ln := q.Len()
	w := q.head + sel[0]
	k := 0
	for p := sel[0]; p < ln; p++ {
		if k < len(sel) && p == sel[k] {
			k++
			continue
		}
		q.buf[w] = q.buf[q.head+p]
		w++
	}
	q.buf = q.buf[:w]
	q.consume(0)
	return out
}

// Dispatcher is the batching state of one serial resource (an XPU
// placement group or a retrieval tier): a queue and a Former per stage slot
// the resource serves (Plan.ResourceStages, iterative round slots
// included), plus the scratch pricing reuses; a bucketed prefix slot queues
// in one lane per bucket, so Pick reads lane heads, not the whole backlog.
// It queues ledger indices with their enqueue times and reads their trace
// entries from the Ledger. Not safe for concurrent use.
type Dispatcher struct {
	plan    *Plan
	cache   *cache.Cache // nil unless the prefix tier is on
	led     *Ledger
	slots   []int    // the slots served, in pick-tie order
	queues  []queue  // indexed by slot; the laned slot's stays empty
	formers []Former // indexed by slot
	laned   int      // the bucketed prefix slot, -1 if none is served
	lanes   []queue  // its FIFO lanes, indexed by the bucket key's bit length
	inLanes int      // requests queued across its lanes

	batch   []int
	prompts []int
	credits []int
	doneAt  []float64
}

// NewDispatcher builds resource res's dispatcher. flush is the executor's
// flush timeout: a partial batch dispatches once its head has waited that
// long. c is the reuse cache the prefix slot consults at pricing (nil, or
// a cache with the prefix tier off, consults nothing). l holds the queued
// requests.
func NewDispatcher(p *Plan, res int, flush float64, c *cache.Cache, l *Ledger) *Dispatcher {
	d := &Dispatcher{plan: p, led: l, slots: p.ResourceStages(res), laned: -1,
		queues: make([]queue, p.NumSlots()), formers: make([]Former, p.NumSlots())}
	full := 0
	if c.PrefixOn() {
		d.cache = c
	}
	for _, s := range d.slots {
		d.queues[s].led = l
		f := Former{Policy: PolicyFIFO, Batch: p.StepAt(s).Batch}
		if s == p.PrefixIdx {
			f = p.Former()
			if f.Policy == PolicyBucketed {
				d.laned = s
			}
		}
		f.Flush = flush
		d.formers[s] = f
		full = max(full, f.Batch)
	}
	d.batch = make([]int, 0, full)
	return d
}

// Push queues request r at stage slot, which the resource must serve, at
// virtual time at (never before the slot's last push), and returns the
// slot's queue depth.
func (d *Dispatcher) Push(slot, r int, at float64) int {
	if slot != d.laned {
		d.queues[slot].push(r, at)
		return d.queues[slot].Len()
	}
	i := bits.Len(uint(d.formers[slot].bucketOf(d.led.Trace(r).PromptTokens)))
	for len(d.lanes) <= i {
		d.lanes = append(d.lanes, queue{led: d.led})
	}
	d.lanes[i].push(r, at)
	d.inLanes++
	return d.inLanes
}

// Batch is one dispatch decision.
type Batch struct {
	// Slot is the stage slot served.
	Slot int
	// Members are the batch's requests (ledger indices) in dispatch order.
	// The slice aliases dispatcher scratch and is valid until the next Pick.
	Members []int

	full int // the slot's configured batch size
}

// Pick decides what the resource serves at virtual time now and dequeues
// it. Each slot's Former judges its own queue ripe — it fills a batch, or
// its head has waited the flush timeout — with the prefix slot under the
// plan's formation policy and every other slot FIFO. Among the ripe slots
// the one with the oldest waiting head wins, the earlier slot on ties. ok
// is false when nothing is ripe.
func (d *Dispatcher) Pick(now float64) (b Batch, ok bool) {
	bestAge, n := math.Inf(-1), 0
	var from *queue
	var sel []int
	for _, s := range d.slots {
		q, pn, ps, head := &d.queues[s], 0, []int(nil), 0.0
		if s == d.laned {
			q, pn, head = d.formLanes(now)
		} else if q.Len() > 0 {
			if pn, ps = d.formers[s].Form(q, now); pn > 0 {
				head = q.EnqueuedAt(0)
			}
		}
		if pn == 0 {
			continue
		}
		if age := now - head; age > bestAge {
			bestAge, from, n, sel = age, q, pn, ps
			b = Batch{Slot: s, full: d.formers[s].Batch}
		}
	}
	if from == nil {
		return b, false
	}
	if sel == nil {
		d.batch = from.popN(n, d.batch[:0])
	} else {
		d.batch = from.popSel(sel, d.batch[:0])
	}
	b.Members = d.batch
	if b.Slot == d.laned {
		d.inLanes -= n
	}
	return b, true
}

// formLanes judges the laned slot at now from its lane heads: n > 0
// members of lane q are ripe, its FIFO prefix, which is what Form selects
// from the flat window (the first n positions carrying the winning key).
// head is the slot's oldest lane head: enqueue times never decrease in push
// order, so the flat window's head is one of them.
func (d *Dispatcher) formLanes(now float64) (q *queue, n int, head float64) {
	f, head := &d.formers[d.laned], math.Inf(1)
	f.buckets = f.buckets[:0]
	for i := range d.lanes {
		if l := &d.lanes[i]; l.Len() > 0 {
			b := bucketAgg{key: 1 << (i - 1), count: l.Len(), headEnq: l.EnqueuedAt(0)}
			f.buckets, head = append(f.buckets, b), min(head, b.headEnq)
		}
	}
	if w, n := f.pickBucket(f.buckets, now); n > 0 {
		return &d.lanes[bits.Len(uint(f.buckets[w].key))], n, head
	}
	return nil, 0, head
}

// oldest returns when the longest-waiting queued request entered its
// queue, +Inf when nothing is queued.
func (d *Dispatcher) oldest() float64 {
	t := math.Inf(1)
	for _, s := range d.slots {
		if q := &d.queues[s]; q.Len() > 0 {
			t = min(t, q.EnqueuedAt(0))
		}
	}
	for i := range d.lanes {
		if q := &d.lanes[i]; q.Len() > 0 {
			t = min(t, q.EnqueuedAt(0))
		}
	}
	return t
}

// NoLookup marks a BatchCost.Credits entry whose member bypassed the
// prefix cache.
const NoLookup = -1

// BatchCost is what one batch costs its resource.
type BatchCost struct {
	// Latency is the resource's service time for the batch.
	Latency float64
	// DoneAt[i] is when member i finishes after service starts: Latency,
	// except under chunked prefill, where each member finishes with its own
	// last chunk (never before the one ahead of it, nor after Latency).
	DoneAt []float64
	// Credits[i] is member i's prefix-cache credit in tokens, or NoLookup
	// when it bypassed the cache; nil when no member was looked up.
	Credits []int
	// Tok and Pad are the batch's effective and padded prompt tokens (both
	// 0 when the constant-shape price applied); Chunks is its chunk count
	// under chunked prefill (0 otherwise).
	Tok, Pad, Chunks int
}

// Price costs a picked batch. Non-prefix slots cost the profiled latency
// at the formed batch size. A prefix batch first consults the prefix cache
// for every tagged member, in dispatch order (Access both queries and
// admits, so one executor's lookup sequence is the cache's history), and
// discounts each credited member to its uncached suffix (EffectivePrompt).
// It then runs as quantum-sized chunks under chunked prefill (ChunkPrefill),
// or at its members' padded maximum (PrefixBatchShape, StepLatencyShaped),
// which is the constant-shape latency when every member is unshaped and
// uncredited. The slices alias dispatcher scratch, valid until the next
// Price.
func (d *Dispatcher) Price(b Batch) BatchCost {
	p, n := d.plan, len(b.Members)
	var c BatchCost
	switch {
	case b.Slot != p.PrefixIdx:
		c.Latency = p.StepLatency(b.Slot, n)
	case p.Sched.ChunkQuantum > 0:
		c.Credits = d.lookup(b.Members)
		d.doneAt, c.Latency, c.Tok, c.Pad = p.ChunkPrefill(d.prompts, d.doneAt)
		c.Chunks = c.Pad / p.Sched.ChunkQuantum
		c.DoneAt = d.doneAt
		return c
	default:
		c.Credits = d.lookup(b.Members)
		sh, tok := p.PrefixBatchShape(d.prompts)
		c.Latency = p.StepLatencyShaped(b.Slot, n, sh)
		c.Tok, c.Pad = tok, n*sh.PromptTokens
	}
	d.doneAt = d.doneAt[:0]
	for range b.Members {
		d.doneAt = append(d.doneAt, c.Latency)
	}
	c.DoneAt = d.doneAt
	return c
}

// lookup fills d.prompts with the members' effective prompt lengths after
// their prefix-cache credits and returns the credits (nil when no member
// was looked up).
func (d *Dispatcher) lookup(members []int) []int {
	p := d.plan
	d.prompts, d.credits = d.prompts[:0], d.credits[:0]
	looked := false
	for _, m := range members {
		r := d.led.Trace(m)
		pt, credit := r.PromptTokens, NoLookup
		if d.cache != nil && r.Tagged() {
			base := pt
			if base <= 0 {
				base = p.Pipe.Schema.PrefixTokens
			}
			credit = d.cache.Access(r.ChunkIDs, base)
			pt = p.EffectivePrompt(pt, credit)
			looked = true
		}
		d.prompts = append(d.prompts, pt)
		d.credits = append(d.credits, credit)
	}
	if !looked {
		return nil
	}
	return d.credits
}

// Seq is one sequence's walk through the decode tier: a single generation
// on single-retrieval plans, the §5.3 decode loop on iterative ones —
// decode to a trigger position, park (slot held) while an iterative
// retrieval+prefix round runs, resume at the round's finish, repeat, then
// decode the remaining tokens.
type Seq struct {
	// Stall is the total seconds parked so far; Rounds counts the parks.
	Stall  float64
	Rounds int

	loop     bool    // the sequence parks at least once
	gen      float64 // whole generation time when it never parks
	step     float64 // per-token decode pace between parks
	out      int     // generation length in tokens
	triggers []int   // remaining trigger positions
	tok      int     // tokens decoded so far
	parkedAt float64
}

// Seq builds request r's decode walk. Iterative plans park the sequence at
// r's recorded trigger positions, or, when the trace carries none, at
// trace.TriggersFor's positions for its ID, so every executor parks it at
// the same tokens. A sequence that never parks holds its slot for
// GenTimeForShape: its own output length at the pace its own prompt sets.
func (p *Plan) Seq(r trace.Request) Seq {
	s := Seq{out: p.GenTokens(r.OutputTokens)}
	if p.Round != nil {
		s.step = p.Round.DecodeStep
		s.triggers = r.Triggers
		if s.triggers == nil {
			s.triggers = trace.TriggersFor(r.ID, p.Round.RoundsPerSeq, s.out)
		}
	}
	s.loop = len(s.triggers) > 0
	if !s.loop {
		s.gen = p.GenTimeForShape(r.PromptTokens, r.OutputTokens)
	}
	return s
}

// Advance decodes the sequence from virtual time t (its slot lease or its
// last resume) to its next stop and returns when that is: a trigger
// position, where it parks for a round (park true, counted in Rounds), or
// its last token (park false). Trigger positions clamp into [tokens decoded,
// output length]: decode only moves forward, so an out-of-range or
// out-of-order trigger parks at the nearest legal token.
func (s *Seq) Advance(t float64) (at float64, park bool) {
	if !s.loop {
		return t + s.gen, false
	}
	if len(s.triggers) == 0 {
		return t + float64(s.out-s.tok)*s.step, false
	}
	trig := max(min(s.triggers[0], s.out), s.tok)
	at = t + float64(trig-s.tok)*s.step
	s.tok, s.triggers = trig, s.triggers[1:]
	s.parkedAt = at
	s.Rounds++
	return at, true
}

// Resume ends the current park at virtual time t and returns the parked
// seconds, which accumulate in Stall.
func (s *Seq) Resume(t float64) float64 {
	d := t - s.parkedAt
	s.Stall += d
	return d
}
