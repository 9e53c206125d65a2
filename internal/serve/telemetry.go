package serve

import "sort"

// Telemetry: the windowed metrics feed the online controller polls
// mid-replay. Where Report summarizes a whole run after the fact, a
// Window is a live snapshot over the trailing W virtual seconds —
// arrival rate, completion rate, TTFT/TPOT quantiles, and per-stage
// queue depth — cheap enough to take every few virtual seconds.

// StageDepth is one stage's live occupancy across all epochs: requests
// queued at a batching stage, or holding or awaiting a decode slot.
type StageDepth struct {
	Stage string `json:"stage"`
	Depth int    `json:"depth"`
}

// Window is a sliding-window snapshot of live serving behaviour. All
// times are virtual (schedule) seconds.
type Window struct {
	// Now is the virtual time of the snapshot; Span the width actually
	// covered (smaller than the requested window early in a run).
	Now  float64 `json:"now"`
	Span float64 `json:"span"`

	// Arrivals counts arrivals (admitted and rejected) inside the window
	// and ArrivalRate is Arrivals/Span — the controller's load estimate.
	Arrivals    int     `json:"arrivals"`
	ArrivalRate float64 `json:"arrival_rate"`

	// Completions counts requests finished inside the window; QPS is
	// Completions/Span.
	Completions int     `json:"completions"`
	QPS         float64 `json:"qps"`

	// TTFT and TPOT are quantiles over the window's completions.
	TTFT Quantiles `json:"ttft"`
	TPOT Quantiles `json:"tpot"`

	// Shapes breaks the window's TTFT/TPOT down by per-request shape
	// bucket (empty on constant-shape traffic) — the signal a
	// shape-aware autoscaler or SLO controller would subscribe to.
	Shapes []ShapeStat `json:"shapes,omitempty"`

	// InFlight is the number of admitted, unfinished requests right now;
	// Depths the live per-stage queue occupancy.
	InFlight int          `json:"in_flight"`
	Depths   []StageDepth `json:"depths,omitempty"`

	// CacheHitRate and CacheSavedTokens surface the reuse cache's
	// lifetime prefix hit rate and total saved prefill tokens at snapshot
	// time (both zero when no cache is configured) — the signal the
	// controller's cache-aware capacity weighting consumes.
	CacheHitRate     float64 `json:"cache_hit_rate,omitempty"`
	CacheSavedTokens int64   `json:"cache_saved_tokens,omitempty"`

	// Cumulative counters since the start of the run.
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
}

// snapshot computes the trailing-window view at virtual time now.
func (c *collector) snapshot(now, window float64) Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := now - window
	if lo < 0 {
		lo = 0
	}
	tot := c.tally.Total()
	w := Window{
		Now:       now,
		Span:      now - lo,
		InFlight:  tot.Admitted - tot.Completed,
		Admitted:  tot.Admitted,
		Rejected:  tot.Rejected,
		Completed: tot.Completed,
	}
	// Arrivals happen in the ledger's arrival order and completions are
	// recorded in order, so the window is a suffix of each.
	arrived := tot.Admitted + tot.Rejected
	w.Arrivals = arrived - sort.Search(arrived, func(i int) bool { return c.led.ArrivalAt(i) > lo })
	done := c.tally.Done()
	from := sort.Search(len(done), func(i int) bool { return done[i] > lo })
	to := from
	for to < len(done) && done[to] <= now {
		to++
	}
	w.Completions = to - from
	w.Shapes = c.shapeStats(from, to)
	if w.Span > 0 {
		w.ArrivalRate = float64(w.Arrivals) / w.Span
		w.QPS = float64(w.Completions) / w.Span
	}
	w.TTFT = c.quantiles(c.ttft[from:to])
	w.TPOT = c.quantiles(c.tpot[from:to])
	for i, sl := range c.tally.Slots {
		if sl.Live > 0 {
			w.Depths = append(w.Depths, StageDepth{Stage: c.names[i], Depth: sl.Live})
		}
	}
	return w
}
