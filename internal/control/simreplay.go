package control

import (
	"fmt"
	"math"

	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/trace"
)

// SimResult is the discrete-event replay of a recorded switching history;
// for the live run that recorded it, it is that run (see SimReplay): a view
// of the replay's engine.Tally, Total and per tenure EpochCount.
type SimResult struct {
	// Completed counts simulated completions; QPS is the completion rate
	// over the completion span (Tally.Total().QPS).
	Completed int     `json:"completed"`
	QPS       float64 `json:"qps"`
	// Rejected counts arrivals the admission bound shed.
	Rejected int `json:"rejected,omitempty"`
	// PerSegment annotates each plan tenure, in the order of the live
	// run's Report.Epochs.
	PerSegment []SegmentSim `json:"per_segment,omitempty"`
}

// SegmentSim is one plan tenure of a simulated switching replay.
type SegmentSim struct {
	// Entry indexes Library.Entries; FromV is the tenure's start (0 for
	// the initial plan).
	Entry int     `json:"entry"`
	FromV float64 `json:"from_v"`
	// Admitted and Rejected count the arrivals routed to the tenure;
	// Completed counts the admitted requests it finished.
	Admitted  int `json:"admitted"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected,omitempty"`
	// FirstDone/LastDone bound the tenure's completions in absolute trace
	// time (0 when it completed nothing); QPS is its own completion rate.
	FirstDone float64 `json:"first_done"`
	LastDone  float64 `json:"last_done"`
	QPS       float64 `json:"qps"`
}

// SimReplay replays a controller Result's switching decisions through the
// discrete-event validator. It runs the live Server's own loop
// (engine.Loop) with one epoch per recorded tenure, each starting at its
// switch's Event.AtV, to the end of the trace: every request is admitted by
// the plan current at its arrival and finishes on that plan's resources
// (drain-and-migrate), maxInFlight bounds in-flight requests across all
// tenures at once (shed-on-full, 0 admits everything), and events of
// different tenures interleave in virtual-time order. That is what the
// live run did, so for a Result the controller recorded with the same
// flushTimeout and bound, and no reuse cache, the replay equals the live
// run exactly.
//
// flushTimeout is the effective flush timeout, used as given: 0 dispatches
// partial batches at once, where serve.Options.FlushTimeout 0 means 0.05 s.
func SimReplay(lib *Library, res *Result, reqs []trace.Request, flushTimeout float64, maxInFlight int) (SimResult, error) {
	return simReplay(lib, res, reqs, flushTimeout, maxInFlight, nil)
}

// simReplay runs the replay, publishing its request-level events on bus
// (nil publishes nothing).
func simReplay(lib *Library, res *Result, reqs []trace.Request, flushTimeout float64, maxInFlight int, bus *obs.Bus) (SimResult, error) {
	if lib == nil || len(lib.Entries) == 0 {
		return SimResult{}, fmt.Errorf("control: empty plan library")
	}
	if res == nil {
		return SimResult{}, fmt.Errorf("control: nil controller result")
	}
	if len(reqs) == 0 {
		return SimResult{}, fmt.Errorf("control: empty trace")
	}
	if maxInFlight < 0 {
		return SimResult{}, fmt.Errorf("control: maxInFlight must be non-negative (0 admits everything), got %d", maxInFlight)
	}
	segs := []SegmentSim{{Entry: res.Start}}
	for _, e := range res.Events {
		segs = append(segs, SegmentSim{Entry: e.To, FromV: e.AtV})
	}
	var led *engine.Ledger
	var t *engine.Tally
	var loop *engine.Loop
	for i := range segs {
		if e := segs[i].Entry; e < 0 || e >= len(lib.Entries) {
			return SimResult{}, fmt.Errorf("control: tenure runs entry %d outside the library", e)
		}
		p := lib.Entries[segs[i].Entry].Plan
		if err := p.Executable(); err != nil {
			return SimResult{}, err
		}
		if i == 0 {
			t, led = engine.NewTally(p, len(reqs)), engine.NewLedger(p, reqs, maxInFlight)
			loop = engine.NewLoop(led)
		} else if !lib.Entries[res.Start].Plan.CompatibleWith(p) {
			return SimResult{}, fmt.Errorf("control: tenure runs entry %d, a different stage graph", segs[i].Entry)
		}
		loop.Add(engine.NewCore(p, led, flushTimeout, nil, bus, t.Epoch(i)), segs[i].FromV)
	}
	loop.Advance(math.Inf(1), nil)

	tot := t.Total()
	if tot.Completed == 0 {
		return SimResult{}, fmt.Errorf("control: sim replay completed nothing")
	}
	for i := range segs {
		ec, sg := t.EpochCount(i), &segs[i]
		sg.Admitted, sg.Completed, sg.Rejected = ec.Admitted, ec.Completed, ec.Rejected
		sg.FirstDone, sg.LastDone, sg.QPS = ec.FirstDone, ec.LastDone, ec.QPS
	}
	return SimResult{Completed: tot.Completed, QPS: tot.QPS, Rejected: tot.Rejected, PerSegment: segs}, nil
}
