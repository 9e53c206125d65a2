package engine

import "math"

// Loop is the one arrival/epoch merge loop every run goes through. It holds
// a run's Ledger and its epoch cores (one per plan tenure) in start order
// and hands each arrival and core event to its core in one virtual-time
// order: an arrival goes to the newest epoch started at or before it and
// wins a tie with any core event; between cores the older epoch wins ties.
// Drivers differ only in when they advance it, so the same epochs at the
// same starts make the same decisions. Not safe for concurrent use.
type Loop struct {
	led    *Ledger
	cores  []*Core
	starts []float64
}

// NewLoop builds an empty loop over ledger l.
func NewLoop(l *Ledger) *Loop { return &Loop{led: l} }

// Add appends an epoch: core k, built over the loop's ledger, admits the
// arrivals from virtual time start until the next epoch's start. Starts must
// not decrease, and no arrival at or after start may have been handled yet.
func (lp *Loop) Add(k *Core, start float64) {
	lp.cores = append(lp.cores, k)
	lp.starts = append(lp.starts, start)
}

// Advance handles, in order, every arrival and core event due at or before
// virtual time now, calling before (when non-nil) with each one's time just
// ahead of handling it. It returns when the next one is due, or false once
// every request has arrived and no core has an event left.
func (lp *Loop) Advance(now float64, before func(t float64)) (float64, bool) {
	for {
		var next *Core
		t := math.Inf(1)
		for _, k := range lp.cores {
			if et, ok := k.Next(); ok && et < t {
				next, t = k, et
			}
		}
		at, arriving := lp.led.NextArrival()
		if arriving && at <= t {
			next, t = nil, at
		} else if next == nil {
			return 0, false
		}
		if t > now {
			return t, true
		}
		if before != nil {
			before(t)
		}
		if next != nil {
			next.Step()
			continue
		}
		i := len(lp.starts) - 1
		for i > 0 && lp.starts[i] > at {
			i--
		}
		lp.cores[i].Admit()
	}
}

// Drained reports whether epoch i is over: a later epoch has started, no
// remaining arrival can route to i, and every request i admitted has
// completed.
func (lp *Loop) Drained(i int) bool {
	if i+1 >= len(lp.cores) || lp.cores[i].held > 0 {
		return false
	}
	at, ok := lp.led.NextArrival()
	return !ok || at >= lp.starts[i+1]
}
