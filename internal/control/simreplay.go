package control

import (
	"fmt"
	"math"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/sim"
	"rago/internal/trace"
)

// SimResult is the discrete-event replay of a recorded switching history.
type SimResult struct {
	// Completed counts simulated completions; QPS is completions over
	// the union completion span.
	Completed int     `json:"completed"`
	QPS       float64 `json:"qps"`
	// Rejected counts arrivals the admission bound shed across tenures.
	Rejected int `json:"rejected,omitempty"`
	// Segments is how many plan tenures actually served requests.
	Segments int `json:"segments"`
	// PerSegment annotates each served tenure: which library entry ran
	// it, the slice of the trace it carried, and its own completion rate.
	PerSegment []SegmentSim `json:"per_segment,omitempty"`
	// Cache is the replay's reuse-cache statistics (SimReplayCached only).
	Cache *cache.Stats `json:"cache,omitempty"`
}

// SegmentSim is one plan tenure of a simulated switching replay.
type SegmentSim struct {
	// Entry indexes Library.Entries; FromV is the tenure's start (0 for
	// the initial plan).
	Entry int     `json:"entry"`
	FromV float64 `json:"from_v"`
	// Requests/Completed/Rejected count the tenure's trace slice.
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected,omitempty"`
	// FirstDone/LastDone bound the tenure's completions in absolute trace
	// time; QPS is the tenure's own windowed completion rate.
	FirstDone float64 `json:"first_done"`
	LastDone  float64 `json:"last_done"`
	QPS       float64 `json:"qps"`
}

// SimReplay replays a controller Result's switching decisions through the
// discrete-event validator: each request is simulated on the plan that
// was current at its arrival, on that plan's own resources — exactly the
// drain-and-migrate semantics of the live Server, where epochs never
// share workers — and the per-tenure results are combined over the union
// completion span. maxInFlight applies the live runtime's admission bound
// (shed-on-full, 0 admits everything) per tenure; the live Server bounds
// in-flight requests globally across draining epochs, so under heavy
// shedding the per-tenure replay is an approximation — accurate away from
// switch instants. The returned QPS is the reference the live runtime is
// cross-checked against (the two must agree within the established 15%
// band).
func SimReplay(lib *Library, res *Result, reqs []trace.Request, flushTimeout float64, maxInFlight int) (SimResult, error) {
	return simReplay(lib, res, reqs, flushTimeout, maxInFlight, nil)
}

// SimReplayCached is SimReplay with the simulator mirroring the live
// Server's reuse cache: one cache built from cfg spans every tenure, the
// way Options.Cache is server-scoped in the runtime (plan switches never
// flush it). The replay's cache statistics land in SimResult.Cache.
func SimReplayCached(lib *Library, res *Result, reqs []trace.Request, flushTimeout float64, maxInFlight int, cfg cache.Config) (SimResult, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return SimResult{}, err
	}
	out, err := simReplay(lib, res, reqs, flushTimeout, maxInFlight, c)
	if err == nil {
		st := c.Stats()
		out.Cache = &st
	}
	return out, err
}

func simReplay(lib *Library, res *Result, reqs []trace.Request, flushTimeout float64, maxInFlight int, c *cache.Cache) (SimResult, error) {
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
	// Reconstruct the plan timeline: entry indices over [bound, next).
	type tenure struct {
		entry int
		from  float64
	}
	timeline := []tenure{{entry: res.Start}}
	for _, e := range res.Events {
		if e.To < 0 || e.To >= len(lib.Entries) {
			return SimResult{}, fmt.Errorf("control: event targets entry %d outside the library", e.To)
		}
		timeline = append(timeline, tenure{entry: e.To, from: e.AtV})
	}

	out := SimResult{}
	first, last := math.Inf(1), math.Inf(-1)
	lo := 0
	// Pool one simulator per library entry: an oscillating controller
	// revisits the same few entries across many tenures, and ServeSim.Run
	// keeps no cross-run state, so re-running a pooled instance is exactly
	// one fresh construction per distinct entry instead of one per segment
	// (the pool-scratch discipline the executors' hot paths already use).
	sims := make(map[int]*sim.ServeSim, len(lib.Entries))
	for i, tn := range timeline {
		hi := len(reqs)
		if i+1 < len(timeline) {
			next := timeline[i+1].from
			for hi = lo; hi < len(reqs) && reqs[hi].Arrival < next; hi++ {
			}
		}
		seg := reqs[lo:hi]
		lo = hi
		if len(seg) == 0 {
			continue
		}
		s := sims[tn.entry]
		if s == nil {
			var err error
			s, err = sim.NewServeFromPlan(lib.Entries[tn.entry].Plan)
			if err != nil {
				return SimResult{}, err
			}
			sims[tn.entry] = s
		}
		s.MaxInFlight = maxInFlight
		s.Cache = c
		r, err := s.Run(seg, flushTimeout)
		if err != nil {
			return SimResult{}, err
		}
		out.Completed += r.Completed
		out.Rejected += r.Rejected
		out.Segments++
		out.PerSegment = append(out.PerSegment, SegmentSim{
			Entry: tn.entry, FromV: tn.from,
			Requests: len(seg), Completed: r.Completed, Rejected: r.Rejected,
			FirstDone: r.FirstDone, LastDone: r.LastDone, QPS: r.QPS,
		})
		first, last = min(first, r.FirstDone), max(last, r.LastDone)
	}
	if out.Completed == 0 {
		return SimResult{}, fmt.Errorf("control: sim replay completed nothing")
	}
	out.QPS = engine.CompletionRate(out.Completed, first, last)
	return out, nil
}
