// Package control is the SLO-aware online control plane over the serving
// runtime: it precomputes a library of compiled execution plans from the
// optimizer's Pareto frontier, watches the runtime's windowed telemetry
// under a time-varying trace, and hot-swaps the live Server between plans
// (drain-and-migrate) so p99 TTFT/TPOT stay inside the configured SLOs
// while chip-seconds track the load instead of peak provisioning.
//
// RAGO itself (§6-§7) picks one Pareto-optimal schedule offline; this
// package is what keeps a deployment *on* that frontier as traffic swings
// — production RAG load is diurnal and bursty, and the cheapest
// SLO-feasible schedule at the trough is not the one that survives the
// crest. The controller's decisions are deterministic functions of the
// telemetry windows it samples, so a recorded switching history can be
// replayed through the discrete-event validator (SimReplay) and checked
// against the live run.
package control

import (
	"fmt"
	"sort"

	"rago/internal/core"
	"rago/internal/engine"
)

// SLO is the serving objective the controller enforces: latency quantile
// ceilings in seconds. A zero field disables that bound.
type SLO struct {
	// TTFT bounds windowed p99 time-to-first-token.
	TTFT float64 `json:"ttft,omitempty"`
	// TPOT bounds windowed p99 time-per-output-token.
	TPOT float64 `json:"tpot,omitempty"`
}

// Entry is one deployable operating point of the library: a compiled
// plan, its sustainable throughput, and its chip cost.
type Entry struct {
	// Plan is the compiled execution plan the Server runs.
	Plan *engine.Plan `json:"-"`
	// Schedule renders the plan's schedule for reports.
	Schedule string `json:"schedule"`
	// QPS is the plan's analytical saturation throughput — the load it
	// can sustain; TTFT its unloaded first-token latency. Both start as
	// the plan's own metrics, which a shaped search already priced over
	// its shape sample (core.Optimizer.Compile), and Reweight re-prices
	// them when the live shape mix drifts.
	QPS  float64 `json:"qps"`
	TTFT float64 `json:"ttft"`
	// Chips is the XPU count the plan occupies (its cost).
	Chips int `json:"chips"`
	// Recall is the plan's measured retrieval quality (recall@k of its
	// nprobe/fanout operating point); 0 when unmeasured. Entries that
	// buy recall instead of throughput stay on the staircase, so the
	// controller can trade quality for capacity under overload — and
	// back — without leaving the library.
	Recall float64 `json:"recall,omitempty"`
}

// Library is the controller's precomputed plan menu: SLO-feasible
// schedules compiled once, ordered by ascending sustainable QPS and
// ascending chip cost (entries costing more without sustaining more are
// pruned). Index i+1 is the next plan "up" from i.
type Library struct {
	Entries []Entry
}

// NewLibrary builds a plan library from an optimizer's Pareto frontier:
// points violating the SLO analytically (unloaded TTFT over the TTFT
// bound, steady-state TPOT over the TPOT bound) are excluded, the rest
// are compiled by the optimizer that priced them, and the cost/capacity
// staircase is pruned to plans that buy throughput with their chips.
func NewLibrary(o *core.Optimizer, front []core.SchedulePoint, slo SLO) (*Library, error) {
	var plans []*engine.Plan
	for _, p := range front {
		if slo.TTFT > 0 && p.Metrics.TTFT > slo.TTFT {
			continue
		}
		if slo.TPOT > 0 && p.Metrics.TPOT > slo.TPOT {
			continue
		}
		plan, err := o.Compile(p.Item)
		if err != nil {
			// Frontier points assembled once already; a compile failure
			// here means the schedule went stale, not a user error.
			return nil, fmt.Errorf("control: frontier schedule no longer compiles: %w", err)
		}
		plans = append(plans, plan)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("control: no frontier point satisfies the SLO (TTFT<=%.3fs TPOT<=%.4fs)", slo.TTFT, slo.TPOT)
	}
	return NewLibraryFromPlans(plans)
}

// NewLibraryFromPlans builds a library from already-compiled plans (all of
// the same pipeline), pruning cost-dominated entries.
func NewLibraryFromPlans(plans []*engine.Plan) (*Library, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("control: empty plan library")
	}
	for _, p := range plans[1:] {
		if !plans[0].CompatibleWith(p) {
			return nil, fmt.Errorf("control: library plans execute different stage graphs; all must share one pipeline")
		}
	}
	entries := make([]Entry, 0, len(plans))
	for _, p := range plans {
		entries = append(entries, Entry{
			Plan:     p,
			Schedule: p.Sched.Describe(p.Pipe),
			QPS:      p.Metrics.QPS,
			TTFT:     p.Metrics.TTFT,
			Chips:    p.Sched.ChipsUsed(),
			Recall:   p.Metrics.Recall,
		})
	}
	return &Library{Entries: append([]Entry(nil), staircase(entries)...)}, nil
}

// staircase orders entries cheapest-first (highest capacity among equal
// costs, higher recall breaking ties) and prunes entries whose extra chips
// buy neither extra QPS nor extra recall. With every recall unmeasured
// (all zero) this is exactly the historical capacity-only staircase; with
// a recall axis, a high-recall/low-QPS entry and a low-recall/high-QPS
// entry coexist — the menu the controller degrades across under overload.
func staircase(entries []Entry) []Entry {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Chips != entries[j].Chips {
			return entries[i].Chips < entries[j].Chips
		}
		if entries[i].QPS != entries[j].QPS {
			return entries[i].QPS > entries[j].QPS
		}
		return entries[i].Recall > entries[j].Recall
	})
	kept := entries[:0]
	bestQPS, bestRecall := 0.0, 0.0
	for _, e := range entries {
		if len(kept) > 0 && e.QPS <= bestQPS && e.Recall <= bestRecall {
			continue
		}
		kept = append(kept, e)
		if e.QPS > bestQPS {
			bestQPS = e.QPS
		}
		if e.Recall > bestRecall {
			bestRecall = e.Recall
		}
	}
	return kept
}

// Reweight re-prices every entry IN PLACE for a shape sample: each
// entry's sustainable QPS and unloaded TTFT become its plan's
// policy-aware shape-weighted predictions (ShapeMetrics at the plan's own
// formation policy and chunk quantum). Entries are neither re-sorted nor
// pruned, so indices stay stable, which is what lets a controller
// re-weight its library mid-run — its current-plan index, its recorded
// switch events, and any replay of them keep pointing at the same plans.
// The staircase is priced for the sample the library's search saw and
// goes stale the moment the live shape mix drifts from it; the controller
// calls this from its tick loop (hold-down gated) with the telemetry
// window's bucket mix. Empty samples leave the library unchanged.
func (l *Library) Reweight(shapes []engine.Shape) {
	if len(shapes) == 0 {
		return
	}
	for i := range l.Entries {
		e := &l.Entries[i]
		m := e.Plan.ShapeMetrics(shapes)
		e.QPS = m.QPS
		e.TTFT = m.TTFT
	}
}

// IndexFor returns the cheapest entry sustaining at least targetQPS, or
// the most capable entry when none does.
func (l *Library) IndexFor(targetQPS float64) int {
	return l.IndexForFloor(targetQPS, 0)
}

// IndexForFloor is IndexFor restricted to entries whose measured recall is
// at least minRecall: the cheapest floor-respecting entry sustaining
// targetQPS, the most capable floor-respecting entry when none does, and
// the plain IndexFor answer when the floor excludes everything (a floor
// above the library's best recall must not strand the controller).
// Unmeasured entries (recall 0) pass any floor — deployments without a
// calibrated recall surface keep the historical capacity-only behaviour.
func (l *Library) IndexForFloor(targetQPS, minRecall float64) int {
	if len(l.Entries) == 0 {
		return -1
	}
	best := -1
	for i, e := range l.Entries {
		if minRecall > 0 && e.Recall > 0 && e.Recall < minRecall {
			continue
		}
		if e.QPS >= targetQPS {
			return i
		}
		if best < 0 || e.QPS > l.Entries[best].QPS {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return l.IndexFor(targetQPS)
}
