package engine

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"rago/internal/cache"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/trace"
)

// refCompletionRate and refSteadyRate are the package functions the Tally's
// methods replaced, kept as the reference the methods must match bit for
// bit on sorted completion times.
func refCompletionRate(completed int, first, last float64) float64 {
	if completed < 2 || last <= first {
		return 0
	}
	return float64(completed-1) / (last - first)
}

func refSteadyRate(done []float64) float64 {
	if len(done) < 3 {
		return 0
	}
	s := append([]float64(nil), done...)
	sort.Float64s(s)
	span := s[len(s)-1] - s[0]
	if span <= 0 {
		return 0
	}
	w := span / 4
	best := 0.0
	j := 0
	for i := range s {
		if s[i]+w > s[len(s)-1] {
			break
		}
		if j < i {
			j = i
		}
		for j < len(s) && s[j] <= s[i]+w {
			j++
		}
		if r := float64(j-i) / w; r > best {
			best = r
		}
	}
	return best
}

// tallyOf counts completions at the given times into a fresh tally, as
// answer-tier hits (no decode slot to release).
func tallyOf(done []float64) *Tally {
	t := &Tally{}
	e := t.Epoch(0)
	for r, at := range done {
		e.Completed(r, Completion{At: at, Hit: true})
	}
	return t
}

// TestTally counts a hand-checkable two-epoch run of one chunked Case I plan
// (256-token quantum) under MaxInFlight 1 with an answer-tier cache:
//   - r0 arrives at 0 and is served on epoch 0: a 300-token prompt, one
//     prefix batch of 2 chunks padded to 512 tokens;
//   - r1 arrives at 0 with r0 in flight and is shed;
//   - r2 repeats r0 at 100 and completes on the spot from the answer tier;
//   - r3 arrives at 200, after epoch 1 started at 150, and is served there:
//     600 tokens, 3 chunks padded to 768.
func TestTally(t *testing.T) {
	sched := caseISchedule()
	sched.ChunkQuantum = 256
	plan, _, _ := mustCompile(t, ragschema.CaseI(8e9, 1), sched)
	c, err := cache.New(cache.Config{AnswerEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{
		{ID: 0, Arrival: 0, PromptTokens: 300, OutputTokens: 64, ChunkIDs: []int{1, 2}},
		{ID: 1, Arrival: 0, PromptTokens: 300, OutputTokens: 64},
		{ID: 2, Arrival: 100, PromptTokens: 300, OutputTokens: 64, ChunkIDs: []int{1, 2}},
		{ID: 3, Arrival: 200, PromptTokens: 600, OutputTokens: 64},
	}
	led := NewLedger(plan, reqs, 1)
	tl := NewTally(plan, len(reqs))
	loop := NewLoop(led)
	loop.Add(NewCore(plan, led, 0.05, c, nil, tl.Epoch(0)), 0)
	loop.Add(NewCore(plan, led, 0.05, c, nil, tl.Epoch(1)), 150)
	loop.Advance(math.Inf(1), nil)

	tot := tl.Total()
	want := []Count{{Admitted: 2, Rejected: 1, Completed: 2}, {Admitted: 1, Completed: 1}}
	var sum Count
	for i, w := range want {
		got := tl.EpochCount(i)
		if got.Admitted != w.Admitted || got.Rejected != w.Rejected || got.Completed != w.Completed {
			t.Errorf("epoch %d counted %+v, want %+v", i, got, w)
		}
		sum.Admitted += got.Admitted
		sum.Rejected += got.Rejected
		sum.Completed += got.Completed
	}
	if tot.Admitted != sum.Admitted || tot.Rejected != sum.Rejected || tot.Completed != sum.Completed {
		t.Errorf("epochs sum to %+v, total %+v", sum, tot)
	}
	if tot.Admitted+tot.Rejected != len(reqs) || tot.Completed != tot.Admitted {
		t.Errorf("conservation: total %+v, %d requests", tot, len(reqs))
	}

	// r2's hit completes epoch 0 at its arrival; r3 completes the run.
	done := tl.Done()
	if len(done) != 3 || !sort.Float64sAreSorted(done) || done[1] != 100 || done[2] <= 200 {
		t.Fatalf("completion times %v", done)
	}
	e0, e1 := tl.EpochCount(0), tl.EpochCount(1)
	if e0.FirstDone != done[0] || e0.LastDone != 100 || e1.FirstDone != done[2] || e1.LastDone != done[2] {
		t.Errorf("epoch spans %+v %+v over completions %v", e0, e1, done)
	}
	if tot.FirstDone != done[0] || tot.LastDone != done[2] {
		t.Errorf("run span [%v, %v], completions %v", tot.FirstDone, tot.LastDone, done)
	}

	for i, sl := range tl.Slots {
		var w SlotCount
		switch {
		case i == plan.PrefixIdx:
			w = SlotCount{Batches: 2, Formed: 2, Full: 2 * sched.Groups[0].Batch,
				Tok: 300 + 600, Pad: 512 + 768, Chunked: 2, Chunks: 2 + 3, Peak: 1}
		case i < len(plan.Steps) && plan.Pipe.Stages[i].Kind == pipeline.KindRetrieval:
			w = SlotCount{Batches: 2, Formed: 2, Full: 2 * sched.RetrievalBatch, Peak: 1}
		}
		if sl != w {
			t.Errorf("slot %s counted %+v, want %+v", plan.SlotName(i), sl, w)
		}
	}
	s := tl.Summary()
	if s.PadWaste != 1-900.0/1280 || s.MeanChunks != 2.5 || tl.Slots[plan.PrefixIdx].Fill() != 2.0/16 {
		t.Errorf("pad waste %v, mean chunks %v, prefix fill %v", s.PadWaste, s.MeanChunks, tl.Slots[plan.PrefixIdx].Fill())
	}

	bits := math.Float64bits
	if got, want := tot.QPS, refCompletionRate(3, done[0], done[2]); got == 0 || bits(got) != bits(want) {
		t.Errorf("completion rate %v, reference %v", got, want)
	}
	if got, want := tl.SteadyRate(), refSteadyRate(done); got == 0 || bits(got) != bits(want) || bits(s.SteadyQPS) != bits(want) {
		t.Errorf("steady rate %v (summary %v), reference %v", got, s.SteadyQPS, want)
	}
	if got, want := e0.QPS, refCompletionRate(2, done[0], 100); bits(got) != bits(want) || e1.QPS != 0 {
		t.Errorf("epoch rates %v and %v, want %v and 0", got, e1.QPS, want)
	}
}

func TestTallySteadyRateDegenerate(t *testing.T) {
	for _, done := range [][]float64{nil, {1, 2}, {5, 5, 5, 5}} {
		if r := tallyOf(done).SteadyRate(); r != 0 {
			t.Errorf("%v: got %g, want 0", done, r)
		}
	}
}

// Uniform completions must estimate close to the true rate, with the
// reference's bits.
func TestTallySteadyRateUniform(t *testing.T) {
	done := make([]float64, 1001)
	for i := range done {
		done[i] = float64(i) * 0.1 // 10/s for 100s
	}
	r := tallyOf(done).SteadyRate()
	if math.Abs(r-10)/10 > 0.05 {
		t.Errorf("uniform 10/s: got %g", r)
	}
	if want := refSteadyRate(done); math.Float64bits(r) != math.Float64bits(want) {
		t.Errorf("got %v, reference %v", r, want)
	}
}

// A run that is mostly warmup and tail with a dense middle: the steady
// rate must see the middle, where the span-based rate dilutes it.
func TestTallySteadyRateIgnoresWarmupAndTail(t *testing.T) {
	var done []float64
	done = append(done, 0, 20) // sparse warmup
	for i := 0; i < 400; i++ { // dense middle: 40/s over 10s
		done = append(done, 40+float64(i)*0.025)
	}
	done = append(done, 80, 100) // sparse tail
	tl := tallyOf(done)
	spanRate := tl.Total().QPS
	steady := tl.SteadyRate()
	if steady < 2*spanRate {
		t.Errorf("steady %g did not rise above diluted span rate %g", steady, spanRate)
	}
	if steady < 10 || steady > 45 {
		t.Errorf("steady %g implausible for a 40/s middle (window wider than the clump)", steady)
	}
}

// TestRunStateBytes pins the bytes per request a run's NewLedger and
// NewTally hold, counted from slice capacities times element sizes (the
// trace itself is the caller's). The Case IV ledger held 176 B per request
// by this count (172 B in a heap profile of a 100k-request Case IV run)
// while each request kept its decode walk (an 88 B Seq) and a float64 per
// stage slot for its enqueue times, and the Case III one 156 B. Decode walks
// now live in the Core's DecodeBatch slots and enqueue times beside the
// queue entries, so what is left per request is its TTFT, decode start and
// slot (24 B), a pending-predecessor count per stage (4 B each) and the
// tally's completion time (8 B).
func TestRunStateBytes(t *testing.T) {
	const n = 1000
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{ID: i, Arrival: float64(i)}
	}
	for _, tc := range []struct {
		name          string
		schema        ragschema.Schema
		sched         Schedule
		ledger, tally int
	}{
		{"Case IV", ragschema.CaseIV(8e9), caseIVSchedule(), 48, 8},
		{"Case III", ragschema.CaseIII(8e9, 4), caseIIISchedule(), 36, 8},
	} {
		plan, _, _ := mustCompile(t, tc.schema, tc.sched)
		l, tl := NewLedger(plan, reqs, 0), NewTally(plan, n)
		ledger := cap(l.order)*int(unsafe.Sizeof(int(0))) + cap(l.pending)*int(unsafe.Sizeof(int32(0))) +
			cap(l.state)*int(unsafe.Sizeof(reqState{}))
		tally := cap(tl.done) * int(unsafe.Sizeof(float64(0)))
		if ledger%n != 0 || tally%n != 0 || ledger/n != tc.ledger || tally/n != tc.tally {
			t.Errorf("%s: ledger %d B and tally %d B for %d requests, want %d and %d B per request",
				tc.name, ledger, tally, n, tc.ledger, tc.tally)
		}
	}
}
