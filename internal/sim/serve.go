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
// servers the initial pass uses. Every decision is engine.Core's and every
// count engine.Tally's: Run is engine.Loop with one epoch, run to the end,
// and the live runtime (serve.Server) is the same loop advanced on the wall
// clock. It exists to validate the analytical assembly: at saturation its
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

// ServeResult is the measured behaviour of one run: a view of the run's
// engine.Tally (Tally.Summary) plus the cache's counters.
type ServeResult struct {
	Completed int
	// Rejected counts arrivals shed by the MaxInFlight admission bound.
	Rejected int
	// QPS is the completion rate (Tally.CompletionRate) and SteadyQPS the
	// peak windowed one (Tally.SteadyRate).
	QPS, SteadyQPS float64
	// MeanTTFT is the average time from arrival to prefix completion.
	MeanTTFT float64
	// MeanLatency is the average time from arrival to full generation.
	MeanLatency float64
	// MeanStall is the average per-request time sequences spent parked
	// in the §5.3 decode loop (0 for single-retrieval plans).
	MeanStall float64
	// PadWaste is the fraction of padded prompt tokens spent padding
	// (engine.Summary.PadWaste).
	PadWaste float64
	// FirstDone and LastDone bound the completion span in absolute trace
	// time.
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

// Run executes the trace. flushTimeout is how long a partially filled batch
// may wait before being dispatched anyway (0 dispatches immediately, which
// is what unloaded-latency measurements want).
func (s *ServeSim) Run(reqs []trace.Request, flushTimeout float64) (ServeResult, error) {
	if len(reqs) == 0 {
		return ServeResult{}, fmt.Errorf("sim: empty trace")
	}
	t := engine.NewTally(s.plan, len(reqs))
	led := engine.NewLedger(s.plan, reqs, s.MaxInFlight)
	loop := engine.NewLoop(led)
	loop.Add(engine.NewCore(s.plan, led, flushTimeout, s.Cache, s.Bus, t.Epoch(0)), 0)
	loop.Advance(math.Inf(1), nil)
	sum := t.Summary()
	if sum.Completed == 0 {
		return ServeResult{}, fmt.Errorf("sim: no request completed")
	}
	res := ServeResult{
		Completed:   sum.Completed,
		Rejected:    sum.Rejected,
		QPS:         sum.QPS,
		SteadyQPS:   sum.SteadyQPS,
		MeanTTFT:    sum.MeanTTFT,
		MeanLatency: sum.MeanLatency,
		MeanStall:   sum.MeanStall,
		PadWaste:    sum.PadWaste,
		FirstDone:   sum.FirstDone,
		LastDone:    sum.LastDone,
	}
	if s.Cache != nil {
		st := s.Cache.Stats()
		res.Cache = &st
	}
	return res, nil
}
