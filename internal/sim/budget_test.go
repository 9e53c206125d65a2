package sim

import (
	"math"
	"testing"

	"rago/internal/engine"
	"rago/internal/ragschema"
	"rago/internal/trace"
)

// TestLoopEventBudget pins how few events the core handles per request on
// Case IV Poisson traffic. A batch in service is one heap entry, and a
// partial batch's flush is one deadline armed per idle resource. The
// measured loop events per request are 4.76 at 0.5x load and 3.75 at 1.5x,
// where a heap entry per member finish, per resource free and per enqueue
// handled 13.70 and 13.25. The budget is 1.3x the measured count.
func TestLoopEventBudget(t *testing.T) {
	for _, tc := range []struct {
		load, budget float64
	}{{0.5, 6.2}, {1.5, 4.9}} {
		s, _ := mechanismCaseIV(tc.load, 0, 0)(t)
		reqs, err := trace.Poisson(4000, tc.load*s.plan.Metrics.QPS, 13)
		if err != nil {
			t.Fatal(err)
		}
		led := engine.NewLedger(s.plan, reqs, 0)
		loop := engine.NewLoop(led)
		loop.Add(engine.NewCore(s.plan, led, 0.05, nil, nil, engine.NewTally(s.plan, len(reqs)).Epoch(0)), 0)
		n := 0
		loop.Advance(math.Inf(1), func(float64) { n++ }) // once per event, arrivals included
		if got := float64(n) / float64(len(reqs)); got > tc.budget {
			t.Errorf("Case IV at %vx load: %.2f loop events per request, budget %v", tc.load, got, tc.budget)
		}
	}
}

// TestServeSimAllocsFlat pins that a run's allocations do not grow with
// its trace: every per-request array is sized once, and every queue and
// scratch buffer is reused, so only their growth to the run's peak backlog
// adds a few. Case IV Poisson runs allocate 99 and 108 times for 2,000 and
// 20,000 requests at 0.5x load, and 105 and 114-116 times at 1.5x. Shaped
// bucketed Case I at 1.5x allocates 142 and 167-168 times: its prefix slot
// queues in one lane per bucket, and each lane grows to its own peak. The
// counts move by a few from run to run and between Go releases (a 2-vCPU
// VM with Go 1.24 measured these). The bound is 1.25x the short run's
// count: one allocation per 500 requests would exceed it.
func TestServeSimAllocsFlat(t *testing.T) {
	caseIV := func(t *testing.T) *ServeSim {
		s, _ := mechanismCaseIV(1, 0, 0)(t)
		return s
	}
	caseI := func(t *testing.T) *ServeSim { return bucketedCaseI(t, 16) }
	for _, tc := range []struct {
		name   string
		sim    func(*testing.T) *ServeSim
		load   float64
		shaped bool
	}{{"Case IV", caseIV, 0.5, false}, {"Case IV", caseIV, 1.5, false}, {"shaped bucketed Case I", caseI, 1.5, true}} {
		s := tc.sim(t)
		var allocs [2]float64
		for i, n := range []int{2000, 20000} {
			reqs, err := trace.Poisson(n, tc.load*s.plan.Metrics.QPS, 14)
			if err != nil {
				t.Fatal(err)
			}
			if tc.shaped {
				reqs = mechanismShapes(t, reqs)
			}
			allocs[i] = testing.AllocsPerRun(1, func() {
				if _, err := s.Run(reqs, 0.05); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > 1.25*allocs[0] {
			t.Errorf("%s at %vx load: %.0f allocations for 2,000 requests but %.0f for 20,000", tc.name, tc.load, allocs[0], allocs[1])
		}
	}
}

// bucketedCaseI is the mechanism Case I plan under bucketed formation on
// a prefix group of the given chips (the mechanism plan's is 16), with no
// cache.
func bucketedCaseI(t testing.TB, chips int) *ServeSim {
	sched := mechanismSchedule()
	sched.FormPolicy = engine.PolicyBucketed
	sched.Groups[0].Chips = chips
	s, err := NewServeFromPlan(mechanismCompile(t, ragschema.CaseI(8e9, 1), sched, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
