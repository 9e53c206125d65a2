package sim

import (
	"fmt"
	"math"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/pipeline"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// ServeSim executes a compiled execution plan on a request trace as a
// discrete-event system: the plan's resources are time-multiplexed servers
// forming batches per stage, and the decode tier is a pool of
// continuous-batching slots. Requests traverse the pipeline's stage graph —
// fan-out stages run concurrently on their resources and joins wait for
// every predecessor — so linear chains and multi-source fan-outs run
// through the same loop. Iterative plans (§5.3) additionally run the
// decode loop: sequences park at their trigger positions and an iterative
// retrieval+prefix round batches through the same tier and prefix-group
// servers the initial pass uses. ServeSim is the event-heap driver of the
// engine's dispatch core (engine.Dispatcher, engine.Seq), the same core
// the live runtime drives on the wall clock: every batch it forms and
// prices, and every park, is a decision the live runtime makes the same
// way. It exists to validate the analytical assembly: at saturation its
// throughput must match the compiled Plan.Metrics QPS, and unloaded its
// TTFT must match the analytical latency chain.
type ServeSim struct {
	plan *engine.Plan

	// MaxInFlight is the admission bound: arrivals finding this many
	// requests already in the system are rejected, with the same
	// shed-on-full semantics (and Rejected accounting) as
	// serve.Options.MaxInFlight. 0 admits the whole trace.
	MaxInFlight int

	// Bus, when non-nil, receives the same typed event stream the live
	// runtime publishes — admit/reject, stage enqueue/start/finish, decode
	// slot lease/park/resume/finish — with simulated virtual timestamps.
	// Attach an obs.Tracer to get a Chrome trace of the simulated run, or
	// to structurally compare it against a live replay (span parity).
	Bus *obs.Bus

	// Cache mirrors serve.Options.Cache: the identical reuse-cache state
	// machine consulted at the identical points (prefix tier at batch
	// dispatch, answer tier at admission), so simulated hit rates
	// cross-check the live runtime's. Give the simulator its own
	// instance, never the one a live run is mutating.
	Cache *cache.Cache
}

// ServeResult is the measured behaviour of one run.
type ServeResult struct {
	Completed int
	// Rejected counts arrivals shed by the MaxInFlight admission bound.
	Rejected int
	// QPS is completions divided by the completion span.
	QPS float64
	// SteadyQPS is the peak windowed completion rate (obs.SteadyRate over
	// the completion times): the best quarter-span window, insensitive to
	// warmup ramp and drain tail. 0 when too few completions to window.
	SteadyQPS float64
	// MeanTTFT is the average time from arrival to prefix completion.
	MeanTTFT float64
	// MeanLatency is the average time from arrival to full generation.
	MeanLatency float64
	// MeanStall is the average per-request time sequences spent parked
	// in the §5.3 decode loop (0 for single-retrieval plans).
	MeanStall float64
	// PadWaste is the fraction of prefix-batch tokens spent padding
	// heterogeneous prompts to the batch maximum (0 on constant-shape
	// traces, where no padding accounting applies).
	PadWaste float64
	// FirstDone and LastDone bound the completion span in absolute trace
	// time, so results of trace segments simulated on different plans can
	// be combined into one aggregate rate (the controller's sim replay).
	FirstDone, LastDone float64
	// Cache carries the reuse cache's final counters (nil when the run
	// had no cache attached).
	Cache *cache.Stats
}

// NewServe compiles (pipeline, schedule) through the shared engine and
// builds a simulator for the resulting plan.
func NewServe(pipe pipeline.Pipeline, prof *stageperf.Profiler, sched engine.Schedule) (*ServeSim, error) {
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		return nil, err
	}
	return NewServeFromPlan(plan)
}

// NewServeFromPlan wraps an already-compiled execution plan — the object
// the optimizer's library and the live runtime share — so switching
// decisions can be replayed without recompiling schedules.
func NewServeFromPlan(plan *engine.Plan) (*ServeSim, error) {
	if err := plan.Executable(); err != nil {
		return nil, err
	}
	return &ServeSim{plan: plan}, nil
}

// event kinds.
const (
	evArrival = iota
	evStageDone
	evResourceFree
	evFlush
	evDecodePark
	evDecodeDone
)

type event struct {
	at   float64
	kind int
	a, b int // payload: request index / stage or resource index
	seq  int // tie-break for determinism
}

// before reports whether e orders ahead of o. (at, seq) is a total order —
// seq is unique per event — so the pop sequence of any correct heap is the
// same fully sorted sequence; swapping container/heap for the typed heap
// below cannot change simulation results (the chrome-trace goldens pin it).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap over events. container/heap
// funnels every Push and Pop through interface{}, which boxes one event per
// call — on a saturation trace that is two heap allocations per simulated
// event, and it dominated the simulator's allocation profile.
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

// simRequests resolves the simulator's request indices for its
// dispatchers.
type simRequests struct {
	reqs   []trace.Request
	enqAt  []float64 // enqAt[r*nSlots+slot]: when request r entered slot's queue
	nSlots int
}

func (s *simRequests) Trace(r int) *trace.Request { return &s.reqs[r] }
func (s *simRequests) EnqueuedAt(r, slot int) float64 {
	return s.enqAt[r*s.nSlots+slot]
}

type reqState struct {
	ttft     float64
	decStart float64
	// pending counts unfinished predecessors per stage; a stage becomes
	// ready when its count reaches zero.
	pending []int
	// seq is the request's decode walk (engine.Plan.Seq), built when it
	// leases a decode slot.
	seq engine.Seq
}

// Run executes the trace. flushTimeout is how long a partially filled
// batch may wait before being dispatched anyway (0 dispatches immediately,
// which is what unloaded-latency measurements want).
func (s *ServeSim) Run(reqs []trace.Request, flushTimeout float64) (ServeResult, error) {
	if len(reqs) == 0 {
		return ServeResult{}, fmt.Errorf("sim: empty trace")
	}
	plan := s.plan
	busy := make([]bool, len(plan.Resources))
	states := make([]reqState, len(reqs))

	// One dispatcher per resource — the same engine core the live runtime
	// drives — holds the resource's stage queues (the iterative round's
	// virtual slots included, so round batches contend with the regular
	// stages), forms its batches and prices them, consulting the prefix
	// cache in dispatch order.
	nSlots := plan.NumSlots()
	sr := &simRequests{reqs: reqs, enqAt: make([]float64, len(reqs)*nSlots), nSlots: nSlots}
	disp := make([]*engine.Dispatcher[int], len(plan.Resources))
	for ri := range disp {
		disp[ri] = engine.NewDispatcher[int](plan, ri, flushTimeout, s.Cache, sr)
	}

	h := make(eventHeap, 0, 4*len(reqs))
	seq := 0
	push := func(at float64, kind, a, b int) {
		h.push(event{at: at, kind: kind, a: a, b: b, seq: seq})
		seq++
	}
	decIdx := plan.DecodeIdx
	bus := s.Bus
	var slotName, slotTrack []string
	if bus != nil {
		slotName = plan.SlotNames()
		slotTrack = plan.TrackNames()
	}
	// Per-request pending vectors carved out of one flat backing array:
	// one allocation for the whole trace instead of one per request.
	nSteps := len(plan.Steps)
	predCount := make([]int, nSteps)
	for st, ps := range plan.Preds {
		predCount[st] = len(ps)
	}
	pendingBuf := make([]int, len(reqs)*nSteps)
	for i, r := range reqs {
		pending := pendingBuf[i*nSteps : (i+1)*nSteps : (i+1)*nSteps]
		copy(pending, predCount)
		states[i].pending = pending
		push(r.Arrival, evArrival, i, 0)
	}

	answerOn := s.Cache.AnswerOn()
	decFree := plan.Sched.DecodeBatch
	var decWait []int // requests waiting for a decode slot, FIFO
	// Padding accounting: effective vs padded prefix-batch tokens.
	var padTok, padTotal int64

	// advance schedules request r's next decode stop from time now: a park
	// at its next trigger position, or its finish.
	advance := func(r int, now float64) {
		if at, park := states[r].seq.Advance(now); park {
			push(at, evDecodePark, r, 0)
		} else {
			push(at, evDecodeDone, r, 0)
		}
	}

	// lease admits request r into a decode slot at time now.
	lease := func(r int, now float64) {
		states[r].decStart = now
		states[r].seq = plan.Seq(reqs[r])
		if bus.Active() {
			bus.Publish(obs.Event{Kind: obs.KindDecodeLease, T: now, Req: reqs[r].ID,
				Slot: decIdx, Stage: slotName[decIdx], Track: "decode"})
		}
		advance(r, now)
	}

	// enqueue places request r at stage idx's queue (or a decode slot).
	enqueue := func(r, idx int, now float64) {
		if bus.Active() {
			bus.Publish(obs.Event{Kind: obs.KindEnqueue, T: now, Req: reqs[r].ID,
				Slot: idx, Stage: slotName[idx], Track: slotTrack[idx]})
		}
		if idx == decIdx {
			// Continuous batching: each of the DecodeBatch slots holds
			// one sequence for its full generation — iterative parks
			// included — and is only refilled on completion (the
			// profiled latency already assumes all slots decode
			// concurrently).
			if decFree > 0 {
				decFree--
				lease(r, now)
			} else {
				decWait = append(decWait, r)
			}
			return
		}
		sr.enqAt[r*nSlots+idx] = now
		disp[plan.StepAt(idx).Resource].Push(idx, r)
		if flushTimeout > 0 {
			// Nudge the flush event past the deadline: it must see
			// headAge >= flushTimeout despite float rounding, or a tail
			// partial batch with no later arrivals stalls forever. The
			// relative term keeps the nudge above one ulp at large
			// absolute trace times, where 1e-9 alone would be absorbed.
			ft := now + flushTimeout
			push(ft+1e-9+ft*1e-12, evFlush, idx, 0)
		} else {
			push(now, evFlush, idx, 0)
		}
	}

	// trySchedule dispatches work on resource res if it is idle.
	trySchedule := func(res int, now float64) {
		if busy[res] {
			return
		}
		b, ok := disp[res].Pick(now)
		if !ok {
			return
		}
		busy[res] = true
		c := disp[res].Price(b)
		padTok += int64(c.Tok)
		padTotal += int64(c.Pad)
		if bus.Active() {
			track := plan.Resources[res].Name
			for i, credit := range c.Credits {
				if credit == engine.NoLookup {
					continue
				}
				kind := obs.KindCacheMiss
				if credit > 0 {
					kind = obs.KindCacheHit
				}
				bus.Publish(obs.Event{Kind: kind, T: now, Req: reqs[b.Members[i]].ID,
					Slot: b.Slot, Stage: slotName[b.Slot], Track: track, N: credit})
			}
			// Mirror the live runtime's scatter-gather bracket on sharded
			// retrieval batches: one scatter at dispatch, one gather at the
			// modeled finish, N = the shards consulted. The simulator's
			// replicas are always healthy, so it never emits a fallback —
			// matching a live run with no replicas down.
			if plan.Shards() > 1 && plan.StepAt(b.Slot).Stage.Kind == pipeline.KindRetrieval {
				id := reqs[b.Members[0]].ID
				bus.Publish(obs.Event{Kind: obs.KindShardScatter, T: now, Req: id,
					Slot: b.Slot, Stage: slotName[b.Slot], Track: track, N: plan.EffectiveFanout()})
				bus.Publish(obs.Event{Kind: obs.KindShardGather, T: now + c.Latency, Req: id,
					Slot: b.Slot, Stage: slotName[b.Slot], Track: track, N: plan.EffectiveFanout(), Dur: c.Latency})
			}
			n := len(b.Members)
			for i, r := range b.Members {
				bus.Publish(obs.Event{Kind: obs.KindStageStart, T: now, Req: reqs[r].ID,
					Slot: b.Slot, Stage: slotName[b.Slot], Track: track, N: n})
				bus.Publish(obs.Event{Kind: obs.KindStageFinish, T: now + c.DoneAt[i], Req: reqs[r].ID,
					Slot: b.Slot, Stage: slotName[b.Slot], Track: track, N: n, Dur: c.DoneAt[i]})
			}
		}
		for i, r := range b.Members {
			push(now+c.DoneAt[i], evStageDone, r, b.Slot)
		}
		push(now+c.Latency, evResourceFree, res, 0)
	}

	// ready moves request r into stage idx once its predecessors finish.
	ready := func(r, idx int, now float64) {
		enqueue(r, idx, now)
		if res := plan.StepAt(idx).Resource; res >= 0 {
			trySchedule(res, now)
		}
	}

	var firstDone, lastDone float64
	var sumTTFT, sumLat, sumStall float64
	doneV := make([]float64, 0, len(reqs))
	completed, rejected, inflight := 0, 0, 0

	for len(h) > 0 {
		e := h.pop()
		now := e.at
		switch e.kind {
		case evArrival:
			// Shed-on-full admission control, matching the live
			// runtime's Rejected accounting.
			if s.MaxInFlight > 0 && inflight >= s.MaxInFlight {
				rejected++
				if bus.Active() {
					bus.Publish(obs.Event{Kind: obs.KindReject, T: now, Req: reqs[e.a].ID})
				}
				continue
			}
			inflight++
			if bus.Active() {
				bus.Publish(obs.Event{Kind: obs.KindAdmit, T: now, Req: reqs[e.a].ID})
			}
			// Exact-match answer-cache hit: the request completes at its
			// arrival instant without touching any server (TTFT, latency,
			// and stall all zero), mirroring the live dataplane's admit.
			if answerOn && reqs[e.a].Tagged() &&
				s.Cache.AnswerLookup(reqs[e.a].ChunkIDs, reqs[e.a].PromptTokens, reqs[e.a].OutputTokens) {
				if bus.Active() {
					bus.Publish(obs.Event{Kind: obs.KindCacheAnswerHit, T: now, Req: reqs[e.a].ID})
				}
				completed++
				inflight--
				doneV = append(doneV, now)
				if completed == 1 {
					firstDone = now
				}
				lastDone = now
				continue
			}
			for _, idx := range plan.Entries {
				ready(e.a, idx, now)
			}
		case evFlush:
			if res := plan.StepAt(e.a).Resource; res >= 0 {
				trySchedule(res, now)
			}
		case evResourceFree:
			busy[e.a] = false
			trySchedule(e.a, now)
		case evDecodePark:
			// The sequence reached a trigger position: park it (slot
			// held) and queue the iterative retrieval half of the round.
			if bus.Active() {
				bus.Publish(obs.Event{Kind: obs.KindDecodePark, T: now, Req: reqs[e.a].ID,
					Slot: decIdx, Stage: "decode", Track: "decode", N: states[e.a].seq.Rounds})
			}
			ready(e.a, plan.IterRetrievalSlot(), now)
		case evStageDone:
			r, idx := e.a, e.b
			if plan.Round != nil {
				switch idx {
				case plan.IterRetrievalSlot():
					ready(r, plan.IterPrefixSlot(), now)
					continue
				case plan.IterPrefixSlot():
					stall := states[r].seq.Resume(now)
					if bus.Active() {
						bus.Publish(obs.Event{Kind: obs.KindDecodeResume, T: now, Req: reqs[r].ID,
							Slot: decIdx, Stage: "decode", Track: "decode",
							N: states[r].seq.Rounds, Dur: stall})
					}
					advance(r, now)
					continue
				}
			}
			if idx == plan.PrefixIdx {
				states[r].ttft = now - reqs[r].Arrival
			}
			for _, succ := range plan.Succs[idx] {
				states[r].pending[succ]--
				if states[r].pending[succ] == 0 {
					ready(r, succ, now)
				}
			}
		case evDecodeDone:
			r := e.a
			completed++
			inflight--
			if bus.Active() {
				bus.Publish(obs.Event{Kind: obs.KindDecodeFinish, T: now, Req: reqs[r].ID,
					Slot: decIdx, Stage: "decode", Track: "decode",
					Dur: now - states[r].decStart})
			}
			doneV = append(doneV, now)
			if completed == 1 {
				firstDone = now
			}
			lastDone = now
			sumTTFT += states[r].ttft
			sumLat += now - reqs[r].Arrival
			sumStall += states[r].seq.Stall
			if answerOn && reqs[r].Tagged() {
				s.Cache.AnswerStore(reqs[r].ChunkIDs, reqs[r].PromptTokens, reqs[r].OutputTokens)
			}
			decFree++
			if len(decWait) > 0 {
				nxt := decWait[0]
				decWait = decWait[1:]
				decFree--
				lease(nxt, now)
			}
		}
	}
	if completed == 0 {
		return ServeResult{}, fmt.Errorf("sim: no request completed")
	}
	span := lastDone - firstDone
	qps := math.Inf(1)
	if span > 0 {
		qps = float64(completed-1) / span
	}
	res := ServeResult{
		Completed:   completed,
		Rejected:    rejected,
		QPS:         qps,
		SteadyQPS:   obs.SteadyRate(doneV),
		MeanTTFT:    sumTTFT / float64(completed),
		MeanLatency: sumLat / float64(completed),
		MeanStall:   sumStall / float64(completed),
		FirstDone:   firstDone,
		LastDone:    lastDone,
	}
	if padTotal > 0 {
		res.PadWaste = 1 - float64(padTok)/float64(padTotal)
	}
	if s.Cache != nil {
		st := s.Cache.Stats()
		res.Cache = &st
	}
	return res, nil
}
