package sim

import (
	"math"
	"testing"

	"rago/internal/engine"
	"rago/internal/ragschema"
	"rago/internal/trace"
)

// TestLoopEventBudget pins how many events the core handles on 4,000
// requests of Case IV Poisson traffic (seed 13), exactly. A batch in
// service is one heap entry, and a partial batch's flush is one deadline
// armed per idle resource. The loop handles 19,024 events at 0.5x load and
// 15,001 at 1.5x (4.76 and 3.75 per request), where a heap entry per
// member finish, per resource free and per enqueue handled 13.70 and 13.25
// per request.
func TestLoopEventBudget(t *testing.T) {
	for _, tc := range []struct {
		load float64
		want int
	}{{0.5, 19_024}, {1.5, 15_001}} {
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
		if n != tc.want {
			t.Errorf("Case IV at %vx load: %d loop events, want %d", tc.load, n, tc.want)
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
