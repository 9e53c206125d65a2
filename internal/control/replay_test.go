package control

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rago/internal/obs"
	"rago/internal/trace"
)

// streamEvent is the part of a request-level event a live run and its
// replay must agree on.
type streamEvent struct {
	kind      obs.Kind
	t, dur    uint64
	req, slot int
	n         int
}

// requestLevel reports whether kind is one of the request-level events the
// cores publish: admission, queueing, stage service, decode and cache.
// Switch, decision and window events come from the controller's goroutine
// and the wall clock, so they are not part of the stream.
func requestLevel(k obs.Kind) bool {
	switch k {
	case obs.KindAdmit, obs.KindReject, obs.KindEnqueue, obs.KindStageStart, obs.KindStageFinish,
		obs.KindDecodeLease, obs.KindDecodePark, obs.KindDecodeResume, obs.KindDecodeFinish,
		obs.KindCacheHit, obs.KindCacheMiss, obs.KindCacheAnswerHit:
		return true
	}
	return false
}

// pacedStreamBuf buffers a paced live run's stream: the run publishes in
// bursts at each driver wake, and the draining goroutine must never fall a
// whole buffer behind.
const pacedStreamBuf = 1 << 17

// recordRequestStream attaches a subscriber with a buf-event buffer to a
// fresh bus and drains its request-level events on a goroutine; stop
// detaches it, fails the test if any event was dropped, and returns the
// stream in publication order.
func recordRequestStream(t *testing.T, buf int) (*obs.Bus, func() []streamEvent) {
	t.Helper()
	bus := obs.NewBus()
	sub := bus.Subscribe(buf)
	done := make(chan []streamEvent)
	go func() {
		var out []streamEvent
		for ev := range sub.Events() {
			if requestLevel(ev.Kind) {
				out = append(out, streamEvent{ev.Kind, math.Float64bits(ev.T), math.Float64bits(ev.Dur), ev.Req, ev.Slot, ev.N})
			}
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

// replayExactly replays a controlled run's switching history with the bound
// it ran under and requires the replay to be the same run: the same
// completions and rejections, a bit-identical completion rate, each tenure
// admitting what its epoch admitted, and the same request-level event
// stream (kind, T and Dur bits, Req, Slot, N) as live.
func replayExactly(t *testing.T, lib *Library, res *Result, reqs []trace.Request, maxInFlight int, live []streamEvent) SimResult {
	t.Helper()
	// The unpaced replay publishes faster than a goroutine drains, so the
	// buffer holds the whole stream (and any events past the live count).
	bus, stream := recordRequestStream(t, len(live)+1024)
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
	if len(got) != len(live) {
		t.Errorf("replay published %d request-level events, live %d", len(got), len(live))
	}
	for i := range min(len(got), len(live)) {
		if got[i] != live[i] {
			t.Errorf("event %d: replay %+v, live %+v", i, got[i], live[i])
			break
		}
	}
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
