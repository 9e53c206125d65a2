package engine

import (
	"math"
	"reflect"
	"testing"

	"rago/internal/ragschema"
	"rago/internal/trace"
)

// TestLoopTimers: a timer runs ahead of the arrival due at its instant,
// after the timers set before it for that instant, may set further timers
// and start an epoch at its own instant, and never extends a run.
func TestLoopTimers(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), caseISchedule())
	reqs := []trace.Request{{ID: 0, Arrival: 0}, {ID: 1, Arrival: 10}, {ID: 2, Arrival: 20}}
	led := NewLedger(plan, reqs, 0)
	tl := NewTally(plan, len(reqs))
	loop := NewLoop(led)
	loop.Add(NewCore(plan, led, 0.05, nil, nil, tl.Epoch(0)), 0)

	var fired []string
	mark := func(name string, next float64) {
		fired = append(fired, name)
		if at, _ := led.NextArrival(); at != next {
			t.Errorf("timer %s ran with the next arrival at %v, want %v", name, at, next)
		}
	}
	loop.At(1e9, func() { mark("late", math.Inf(1)) })
	loop.At(10, func() {
		mark("first", 10)
		loop.At(15, func() { mark("set-by-first", 20) })
	})
	loop.At(10, func() {
		mark("second", 10)
		loop.Add(NewCore(plan, led, 0.05, nil, nil, tl.Epoch(1)), 10)
	})
	var before []float64
	if _, ok := loop.Advance(math.Inf(1), func(at float64) { before = append(before, at) }); ok {
		t.Fatal("the loop did not end")
	}

	if want := []string{"first", "second", "set-by-first"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("timers ran %v, want %v", fired, want)
	}
	if e0, e1 := tl.EpochCount(0), tl.EpochCount(1); e0.Admitted != 1 || e1.Admitted != 2 {
		t.Errorf("epochs admitted %d and %d, want 1 and 2: the arrival at the timer's instant goes to the epoch it started", e0.Admitted, e1.Admitted)
	}
	timers := 0
	for _, at := range before {
		if at == 10 || at == 15 {
			timers++
		}
	}
	if timers < 3 {
		t.Errorf("before saw the timer instants %d times, want 3 or more: %v", timers, before)
	}
}
