package engine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rago/internal/cache"
	"rago/internal/ragschema"
	"rago/internal/trace"
)

// caseIIISchedule is an iterative Case III schedule (4 retrievals per
// sequence) whose prefix group also hosts the decode loop's prefix rounds.
func caseIIISchedule() Schedule {
	s := caseISchedule()
	s.IterativeBatch = 8
	return s
}

// TestExecutable: the capability check names the schema for plans the
// executors cannot run, and accepts everything Compile produces —
// iterative plans included.
func TestExecutable(t *testing.T) {
	var nilPlan *Plan
	if err := nilPlan.Executable(); err == nil {
		t.Error("nil plan should be inexecutable")
	}
	plan, _, pipe := mustCompile(t, ragschema.CaseIII(8e9, 4), caseIIISchedule())
	if err := plan.Executable(); err != nil {
		t.Errorf("compiled iterative plan should be executable: %v", err)
	}
	// A hand-built iterative plan without the round structure is the one
	// remaining unsupported shape; the error must name the schema.
	broken := *plan
	broken.Round = nil
	err := broken.Executable()
	if err == nil {
		t.Fatal("iterative plan without round structure should be rejected")
	}
	if want := pipe.Schema.Name; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name schema %q", err, want)
	}
}

// TestDispatcherPickAndPrice walks one resource through the core's
// decisions: an unripe partial batch waits until its head's flush
// deadline, the oldest ripe head wins across slots, and a prefix batch is
// priced through the prefix cache with per-member credits.
func TestDispatcherPickAndPrice(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseIII(8e9, 4), caseIIISchedule())
	res := plan.Steps[plan.PrefixIdx].Resource
	c, err := cache.New(cache.Config{PrefixTokens: 10_000, ChunkTokens: plan.Pipe.Schema.ChunkTokens})
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger(plan, []trace.Request{{ChunkIDs: []int{3, 4}}, {ChunkIDs: []int{3, 4}}, {}, {}}, 0)
	d := NewDispatcher(plan, res, 0.5, c, led)
	if _, ok := d.Pick(10); ok {
		t.Fatal("empty dispatcher picked a batch")
	}
	for i, at := range []float64{1.0, 1.25, 1.5} {
		d.Push(plan.PrefixIdx, i, at)
	}
	if depth := d.Push(plan.IterPrefixSlot(), 3, 0.75); depth != 1 {
		t.Fatalf("iter-prefix depth %d, want 1", depth)
	}
	// The older head (iter-prefix, enqueued at 0.75) ripens at its flush
	// deadline 1.25, before the prefix head's 1.5.
	if _, ok := d.Pick(1.125); ok {
		t.Fatal("partial batches dispatched before their flush deadline")
	}
	b, ok := d.Pick(1.25)
	if !ok || b.Slot != plan.IterPrefixSlot() || len(b.Members) != 1 || b.Members[0] != 3 {
		t.Fatalf("first pick %+v/%v, want the iter-prefix round at its deadline", b, ok)
	}
	b, ok = d.Pick(2)
	if !ok || b.Slot != plan.PrefixIdx || len(b.Members) != 3 {
		t.Fatalf("second pick %+v/%v, want the 3-member prefix batch", b, ok)
	}
	cost := d.Price(b)
	// The first tagged member misses and admits its chunks; the second
	// hits both; the untagged third bypasses the cache.
	if want := []int{0, 2 * plan.Pipe.Schema.ChunkTokens, NoLookup}; len(cost.Credits) != 3 ||
		cost.Credits[0] != want[0] || cost.Credits[1] != want[1] || cost.Credits[2] != want[2] {
		t.Errorf("credits %v, want %v", cost.Credits, want)
	}
	if cost.Pad <= 0 || cost.Tok >= cost.Pad {
		t.Errorf("credited batch priced unshaped: tok %d pad %d", cost.Tok, cost.Pad)
	}
	for i, at := range cost.DoneAt {
		if at != cost.Latency {
			t.Errorf("member %d finishes at %v, want the batch latency %v", i, at, cost.Latency)
		}
	}
	if _, ok := d.Pick(10); ok {
		t.Error("drained dispatcher picked a batch")
	}
}

// TestDispatcherBucketedMatchesForm drives a resource serving a bucketed
// prefix slot, which queues in per-bucket lanes, and a FIFO iter-prefix
// slot through random Push/Pick interleavings, and requires every decision
// to equal a reference that keeps the prefix slot's flat window and calls
// Former.Form on it: same queue depths, oldest head and picks. Prompts mix
// shaped lengths across bucket edges with unshaped entries, and arrivals
// share instants, so the count, head and key tie-breaks all decide.
func TestDispatcherBucketedMatchesForm(t *testing.T) {
	prompts := []int{0, 1, 64, 65, 128, 300, 511, 512, 513, 1024, 1500, 4000}
	for batch := 1; batch <= 8; batch++ {
		for _, flush := range []float64{-1, 0, 0.05} {
			sched := caseIIISchedule()
			sched.FormPolicy = PolicyBucketed
			sched.Groups[0].Batch = batch
			sched.IterativeBatch = 9 - batch
			plan, _, _ := mustCompile(t, ragschema.CaseIII(8e9, 4), sched)
			rng := rand.New(rand.NewSource(int64(batch*10) + int64(flush*100)))
			reqs := make([]trace.Request, 600)
			for i := range reqs {
				if reqs[i].PromptTokens = prompts[rng.Intn(len(prompts))]; rng.Intn(3) == 0 {
					reqs[i].PromptTokens = rng.Intn(5000)
				}
			}
			led := NewLedger(plan, reqs, 0)
			res := plan.Steps[plan.PrefixIdx].Resource
			d, ref := NewDispatcher(plan, res, flush, nil, led), NewDispatcher(plan, res, flush, nil, led)
			if d.laned != plan.PrefixIdx {
				t.Fatal("bucketed prefix slot does not queue in lanes")
			}
			ref.laned = -1
			now := 0.0
			for r := range reqs {
				now += []float64{0, 0, 0.005, 0.02}[rng.Intn(4)]
				slot := plan.PrefixIdx
				if rng.Intn(4) == 0 {
					slot = plan.IterPrefixSlot()
				}
				if got, want := d.Push(slot, r, now), ref.Push(slot, r, now); got != want {
					t.Fatalf("batch %d flush %v: push %d depth %d, want %d", batch, flush, r, got, want)
				}
				if got, want := d.oldest(), ref.oldest(); got != want {
					t.Fatalf("batch %d flush %v: oldest head %v, want %v", batch, flush, got, want)
				}
				for rng.Intn(3) == 0 || r == len(reqs)-1 {
					b, ok := d.Pick(now)
					got := append([]int(nil), b.Members...)
					want, wantOK := ref.Pick(now)
					if ok != wantOK || b.Slot != want.Slot || !slices.Equal(got, want.Members) {
						t.Fatalf("batch %d flush %v at %v: picked %v slot %d %v, want %v slot %d %v",
							batch, flush, now, ok, b.Slot, got, wantOK, want.Slot, want.Members)
					}
					if !ok {
						break
					}
				}
			}
		}
	}
}

// TestSeqDecodeLoop: out-of-order and out-of-range trigger positions clamp
// into [tokens decoded, output length] — decode only moves forward — and
// each round's parked time accumulates as stall.
func TestSeqDecodeLoop(t *testing.T) {
	plan, _, _ := mustCompile(t, ragschema.CaseIII(8e9, 4), caseIIISchedule())
	step := plan.Round.DecodeStep
	s := plan.Seq(trace.Request{ID: 1, OutputTokens: 100, Triggers: []int{30, 10, 500}})
	at, park := s.Advance(0)
	if !park || at != 30*step || s.Rounds != 1 {
		t.Fatalf("first stop %v/%v round %d, want a park at token 30", at, park, s.Rounds)
	}
	r1 := at + 1
	if stall := s.Resume(r1); stall != r1-at {
		t.Fatalf("stall %v, want %v", stall, r1-at)
	}
	// Token 10 is behind the sequence: it parks again without decoding.
	if at2, park := s.Advance(r1); !park || at2 != r1 {
		t.Fatalf("backward trigger parked at %v/%v, want %v", at2, park, r1)
	}
	r2 := r1 + 2
	s.Resume(r2)
	// Token 500 is past the output: it parks at the last token.
	at3, park := s.Advance(r2)
	if !park || at3 != r2+70*step || s.Rounds != 3 {
		t.Fatalf("overshooting trigger parked at %v/%v round %d", at3, park, s.Rounds)
	}
	s.Resume(at3)
	if done, park := s.Advance(at3); park || done != at3 {
		t.Fatalf("finish at %v/%v, want %v with nothing left to decode", done, park, at3)
	}
	if want := (r1 - at) + (r2 - r1); s.Stall != want {
		t.Errorf("stall %v, want %v", s.Stall, want)
	}

	// A sequence without triggers holds its slot for its own generation.
	flat := plan.Seq(trace.Request{ID: 2, PromptTokens: 900, OutputTokens: 64, Triggers: []int{}})
	if done, park := flat.Advance(5); park || done != 5+plan.GenTimeForShape(900, 64) {
		t.Errorf("trigger-free sequence finished at %v/%v", done, park)
	}
	// Without recorded positions the trace's synthetic ones apply.
	syn := plan.Seq(trace.Request{ID: 3})
	want := trace.TriggersFor(3, plan.Round.RoundsPerSeq, plan.GenTokens(0))
	if at, park := syn.Advance(0); !park || at != float64(want[0])*step {
		t.Errorf("synthetic first park %v/%v, want token %d", at, park, want[0])
	}
}
