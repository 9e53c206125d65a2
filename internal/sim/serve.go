package sim

import (
	"fmt"
	"math"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/trace"
)

// ServeSim executes a compiled execution plan (NewServeFromPlan) on a
// request trace as a discrete-event system: the plan's resources are time-multiplexed servers
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

// ServeResult is the measured behaviour of one run: its engine.Tally's
// Summary plus the reuse cache's final counters (Cache, nil when the run
// had no cache attached).
type ServeResult struct {
	engine.Summary
	Cache *cache.Stats
}

// NewServeFromPlan builds a simulator for a compiled execution plan (see
// engine.Compile or core.Optimizer.Compile) — the object the live runtime
// executes, so both run the plan the optimizer priced. Inexecutable plans
// (engine.Plan.Executable) are rejected.
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
	res := ServeResult{Summary: sum}
	if s.Cache != nil {
		st := s.Cache.Stats()
		res.Cache = &st
	}
	return res, nil
}
