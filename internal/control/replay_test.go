package control

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rago/internal/obs"
	"rago/internal/trace"
)

// streamEvent is the part of an obs event two runs of the same thing must
// agree on; payload renders its Payload (a serve.Window, DecisionInfo or
// SwitchInfo), whose floats %v prints exactly.
type streamEvent struct {
	kind      obs.Kind
	t, dur    uint64
	req, slot int
	n         int
	payload   string
}

// fromCore reports whether kind is one the epoch cores publish: admission,
// queueing, stage service, decode and cache. The server's switch and window
// events and the controller's decisions come from the run's At callbacks,
// as deterministic as the rest, but a replay of the switching history runs
// no controller and publishes none of them.
func fromCore(k obs.Kind) bool {
	switch k {
	case obs.KindSwitchBegin, obs.KindSwitchCommit, obs.KindSwitchDrain, obs.KindDecision,
		obs.KindWindow, obs.KindShardFallback:
		return false
	}
	return true
}

// recordStream attaches a subscriber with a buf-event buffer to a fresh bus
// and drains it on a goroutine; stop detaches it, fails the test if any
// event was dropped, and returns the stream in publication order. An
// unpaced run publishes faster than a goroutine drains, so buf must hold
// its whole stream.
func recordStream(t *testing.T, buf int) (*obs.Bus, func() []streamEvent) {
	t.Helper()
	bus := obs.NewBus()
	sub := bus.Subscribe(buf)
	done := make(chan []streamEvent)
	go func() {
		var out []streamEvent
		for ev := range sub.Events() {
			se := streamEvent{ev.Kind, math.Float64bits(ev.T), math.Float64bits(ev.Dur), ev.Req, ev.Slot, ev.N, ""}
			if ev.Payload != nil {
				se.payload = fmt.Sprintf("%+v", ev.Payload)
			}
			out = append(out, se)
		}
		done <- out
	}()
	return bus, func() []streamEvent {
		t.Helper()
		sub.Close()
		out := <-done
		if sub.Dropped() != 0 {
			t.Fatalf("stream subscriber dropped %d events", sub.Dropped())
		}
		return out
	}
}

// sameStream requires two event streams to be equal, event for event.
func sameStream(t *testing.T, what string, got, want []streamEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("%s: event %d is %+v, want %+v", what, i, got[i], want[i])
			return
		}
	}
}

// replayExactly replays a controlled run's switching history with the bound
// it ran under and requires the replay to be the same run: the same
// completions and rejections, a bit-identical completion rate, each tenure
// admitting what its epoch admitted from where it started, and the live
// run's core events (kind, T and Dur bits, Req, Slot, N) as its stream.
func replayExactly(t *testing.T, lib *Library, res *Result, reqs []trace.Request, maxInFlight int, live []streamEvent) SimResult {
	t.Helper()
	bus, stream := recordStream(t, len(live)+1024)
	sr, err := simReplay(lib, res, reqs, 0.05, maxInFlight, nil, bus)
	if err != nil {
		t.Fatal(err)
	}
	got := stream()
	rep := res.Report
	if sr.Completed != rep.Completed || sr.Rejected != rep.Rejected {
		t.Errorf("replay completed/rejected %d/%d, live %d/%d", sr.Completed, sr.Rejected, rep.Completed, rep.Rejected)
	}
	if math.Float64bits(sr.QPS) != math.Float64bits(rep.SustainedQPS) {
		t.Errorf("replay QPS %v, live sustained QPS %v", sr.QPS, rep.SustainedQPS)
	}
	if len(sr.PerSegment) != len(rep.Epochs) {
		t.Fatalf("replay ran %d tenures, live %d epochs", len(sr.PerSegment), len(rep.Epochs))
	}
	for i, sg := range sr.PerSegment {
		if e := rep.Epochs[i]; int64(sg.Admitted) != e.Admitted || sg.FromV != e.StartV {
			t.Errorf("tenure %d admitted %d from %v, live epoch admitted %d from %v", i, sg.Admitted, sg.FromV, e.Admitted, e.StartV)
		}
	}
	var core []streamEvent
	for _, ev := range live {
		if fromCore(ev.kind) {
			core = append(core, ev)
		}
	}
	sameStream(t, "replay vs live core events", got, core)
	return sr
}

// TestSimReplayUnsortedTrace: the live Server admits an unsorted trace in
// arrival order, so the replay of a switching history and the controller's
// opening-window sizing must not depend on the trace being sorted. A
// shuffled copy of a switched trace replays to the same SimResult, tenure
// for tenure, and sizes the same start entry.
func TestSimReplayUnsortedTrace(t *testing.T) {
	lib := caseIVLadder(t)
	rate := 1.2 * lib.Entries[0].QPS
	reqs, err := trace.Poisson(int(60*rate), rate, 31)
	if err != nil {
		t.Fatal(err)
	}
	span := reqs[len(reqs)-1].Arrival
	shuffled := append([]trace.Request(nil), reqs...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	ctl, err := NewController(lib, Config{Window: 12, Headroom: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	start := ctl.startEntry(reqs)
	if start == 0 {
		t.Fatalf("opening window at %.1f/s should size above the cheapest entry", rate)
	}
	if got := ctl.startEntry(shuffled); got != start {
		t.Errorf("shuffled trace sizes start entry %d, sorted %d", got, start)
	}
	res := &Result{Start: start, Events: []Event{
		{AtV: span / 3, From: start, To: 0},
		{AtV: 2 * span / 3, From: 0, To: 2},
	}}
	for _, bound := range []int{0, 24} {
		want, err := SimReplay(lib, res, reqs, 0.05, bound)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimReplay(lib, res, shuffled, 0.05, bound)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("bound %d: shuffled trace replays to\n %+v\nsorted to\n %+v", bound, got, want)
		}
		if bound > 0 && want.Rejected == 0 {
			t.Errorf("bound %d shed nothing", bound)
		}
	}
}
