package serve

import (
	"math"
	"sort"
	"testing"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/obs"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// mechanism is one configuration both drivers replay: a plan, a trace, the
// reuse cache each run builds fresh (nil config: none), the admission
// bound, the flush timeout (0: the 0.05 default) and the live run's real
// search substrate (its Searcher or Sharded fields; none by default).
type mechanism struct {
	name        string
	plan        *engine.Plan
	reqs        []trace.Request
	cache       *cache.Config
	maxInFlight int
	flush       float64
	search      Options
}

// mechanismSchedule is the Case I/III golden schedule.
func mechanismSchedule() engine.Schedule {
	return engine.Schedule{
		Groups:           []engine.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 8}},
		RetrievalServers: 16,
		RetrievalBatch:   8,
		DecodeChips:      16,
		DecodeBatch:      128,
		DecodeReplicas:   4,
	}
}

func mechanismCompile(t *testing.T, schema ragschema.Schema, sched engine.Schedule, shards int) *engine.Plan {
	t.Helper()
	pipe, err := pipeline.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	prof := stageperf.New(hw.XPUC, hw.EPYCHost, schema)
	prof.Shards = shards
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// mechanismShapes draws lognormal lengths, leaving every fifth request at
// the schema constant so batches mix shaped and unshaped members.
func mechanismShapes(t *testing.T, reqs []trace.Request) []trace.Request {
	t.Helper()
	prompt, err := trace.LognormalLengths(512, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	output, err := trace.LognormalLengths(256, 0.7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.WithShapes(reqs, prompt, output, 3)
	for i := range out {
		if i%5 == 0 {
			out[i].PromptTokens, out[i].OutputTokens = 0, 0
		}
	}
	return out
}

// mechanisms builds the five configurations: shaped Case I tagged one
// third by document popularity, one third by session reuse and one third
// untagged, against an evicting prefix cache with the answer tier, under
// bucketed, sorted and bucketed+chunked formation; the shaped §5.3 decode
// loop; and sharded Case I shedding at MaxInFlight 160.
func mechanisms(t *testing.T) []mechanism {
	t.Helper()
	var out []mechanism
	for _, m := range []struct {
		name    string
		pol     engine.BatchPolicy
		quantum int
	}{
		{"caseI-cached-bucketed", engine.PolicyBucketed, 0},
		{"caseI-cached-sorted", engine.PolicySorted, 0},
		{"caseI-cached-bucketed-chunked", engine.PolicyBucketed, 256},
	} {
		schema := ragschema.CaseI(8e9, 1)
		sched := mechanismSchedule()
		sched.FormPolicy, sched.ChunkQuantum = m.pol, m.quantum
		plan := mechanismCompile(t, schema, sched, 0)
		const n = 1500
		base, err := trace.Poisson(n, 1.3*plan.Metrics.QPS, 7)
		if err != nil {
			t.Fatal(err)
		}
		shaped := mechanismShapes(t, base)
		zipf, err := trace.WithDocZipf(shaped, 400, 5, 1.3, 8)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := trace.WithSessions(shaped, 32, 0.7, 400, 5, 1.3, 9)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]trace.Request, n)
		for i := range reqs {
			reqs[i] = [][]trace.Request{zipf, sess, shaped}[i%3][i]
		}
		out = append(out, mechanism{name: m.name, plan: plan, reqs: reqs,
			cache: &cache.Config{PrefixTokens: 6000, ChunkTokens: schema.ChunkTokens, AnswerEntries: 64}})
	}

	iterSched := mechanismSchedule()
	iterSched.IterativeBatch = 8
	iter := mechanismCompile(t, ragschema.CaseIII(8e9, 4), iterSched, 0)
	base, err := trace.Poisson(600, 1.3*iter.Metrics.QPS, 5)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, mechanism{name: "caseIII-shaped", plan: iter, reqs: mechanismShapes(t, base)})

	shardSched := mechanismSchedule()
	shardSched.NProbe, shardSched.ShardFanout = 16, 2
	sharded := mechanismCompile(t, ragschema.CaseI(8e9, 1), shardSched, 4)
	reqs, err := trace.Poisson(1500, 2*sharded.Metrics.QPS, 6)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, mechanism{name: "caseI-sharded-shed", plan: sharded, reqs: reqs, maxInFlight: 160})
}

// parityRows are the configurations whose live-vs-sim checks moved onto
// this stream equality: Case IV saturation, Case V fan-out, the Case III
// cliff (IterativeBatch 1), FIFO and FIFO with chunked prefill on a
// heavy-tailed Case I trace, and Case I over a real Searcher and over a
// healthy Sharded index. The last two show that real search gates only when
// a batch's members advance on the wall clock, never a decision.
func parityRows(t *testing.T) []mechanism {
	t.Helper()
	poisson := func(n int, rate float64, seed int64) []trace.Request {
		reqs, err := trace.Poisson(n, rate, seed)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	compile := func(pipe pipeline.Pipeline, prof *stageperf.Profiler, sched engine.Schedule) *engine.Plan {
		plan, err := engine.Compile(pipe, sched, prof)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	var out []mechanism

	pipe, prof, sched := caseIVSetup(t)
	plan := compile(pipe, prof, sched)
	out = append(out, mechanism{name: "caseIV-saturation", plan: plan, reqs: poisson(1500, 1.5*plan.Metrics.QPS, 42)})

	pipe, prof, sched = caseVSetup(t)
	plan = compile(pipe, prof, sched)
	out = append(out, mechanism{name: "caseV-fanout", plan: plan, reqs: poisson(1500, 1.5*plan.Metrics.QPS, 11)})

	pipe, prof, sched = caseIIISetup(t)
	sched.IterativeBatch = 1
	plan = compile(pipe, prof, sched)
	reqs := trace.WithTriggers(poisson(600, 1.5*plan.Metrics.QPS, 42), plan.Round.RoundsPerSeq, pipe.Stages[plan.DecodeIdx].OutTokens, 7)
	out = append(out, mechanism{name: "caseIII-cliff", plan: plan, reqs: reqs, flush: iterFlush})

	pipe, prof, sched = caseISetup(t)
	for _, quantum := range []int{0, 256} {
		s := sched
		s.ChunkQuantum = quantum
		plan := compile(pipe, prof, s)
		reqs := heavyShapes(t, poisson(1500, 1, 42))
		rate := 1.5 * plan.ShapeMetrics(shapesOf(reqs)).QPS
		for i := range reqs {
			reqs[i].Arrival /= rate
		}
		name := "caseI-fifo"
		if quantum > 0 {
			name = "caseI-fifo-chunked"
		}
		out = append(out, mechanism{name: name, plan: plan, reqs: reqs})
	}

	const dim = 16
	ix, err := vectordb.BuildIVFPQ(vectordb.GenClustered(1500, dim, 12, 0.4, 3), 16, dim/2, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan = compile(pipe, prof, sched)
	out = append(out, mechanism{name: "caseI-searcher", plan: plan, reqs: poisson(600, 1.5*plan.Metrics.QPS, 9),
		search: Options{QueryDim: dim, QuerySeed: 41, Searcher: func(queries [][]float32) ([][]vectordb.Result, error) {
			return ix.SearchBatch(queries, 10, 4)
		}}})

	plan, _, opts := shardedCaseISetup(t)
	return append(out, mechanism{name: "caseI-sharded-healthy", plan: plan, reqs: poisson(1500, 1.5*plan.Metrics.QPS, 42), search: opts})
}

// flushTimeout is the row's flush timeout.
func (m mechanism) flushTimeout() float64 {
	if m.flush == 0 {
		return 0.05
	}
	return m.flush
}

// unpaced is the Speedup of a live run whose wall time plays no part in
// what a test checks: no sleep ever fires, and the run makes the
// simulator's decisions at the same virtual times.
const unpaced = 1e9

// matchesSim requires a live report to equal the simulator's run of the
// same trace and configuration: the same completions and rejections and a
// bit-identical completion rate.
func matchesSim(t *testing.T, what string, rep *Report, res sim.ServeResult) {
	t.Helper()
	if rep.Completed != res.Completed || rep.Rejected != res.Rejected ||
		math.Float64bits(rep.SustainedQPS) != math.Float64bits(res.QPS) {
		t.Errorf("%s: live completed/rejected %d/%d at %v QPS, sim %d/%d at %v", what,
			rep.Completed, rep.Rejected, rep.SustainedQPS, res.Completed, res.Rejected, res.QPS)
	}
}

func (m mechanism) newCache(t *testing.T) *cache.Cache {
	t.Helper()
	if m.cache == nil {
		return nil
	}
	c, err := cache.New(*m.cache)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// streamEvent is the part of an event both drivers must agree on.
type streamEvent struct {
	kind      obs.Kind
	t, dur    uint64
	req, slot int
	n         int
}

// recordStream attaches a lossless subscriber to a fresh bus; the returned
// collect closes it and returns the stream.
func recordStream(t *testing.T, events int) (*obs.Bus, func() []streamEvent) {
	t.Helper()
	bus := obs.NewBus()
	sub := bus.Subscribe(events)
	return bus, func() []streamEvent {
		sub.Close()
		if sub.Dropped() != 0 {
			t.Fatalf("subscriber dropped %d events", sub.Dropped())
		}
		var out []streamEvent
		for ev := range sub.Events() {
			out = append(out, streamEvent{ev.Kind, math.Float64bits(ev.T), math.Float64bits(ev.Dur), ev.Req, ev.Slot, ev.N})
		}
		return out
	}
}

// TestWallDriverMatchesHeapDriver: Server.Serve and sim.ServeSim.Run drive
// the same engine.Loop, so on each mechanism-golden configuration and each
// parity row the live runtime, unpaced and paced, publishes exactly the
// simulator's event stream (kind, T and Dur bits, Req, Slot, N), completes
// and rejects the same requests, and reports a bit-identical completion
// rate. A Switch run then records its completions in virtual-time order
// across epochs.
func TestWallDriverMatchesHeapDriver(t *testing.T) {
	for _, m := range append(mechanisms(t), parityRows(t)...) {
		t.Run(m.name, func(t *testing.T) {
			bus, collect := recordStream(t, 64*len(m.reqs))
			des, err := sim.NewServeFromPlan(m.plan)
			if err != nil {
				t.Fatal(err)
			}
			des.Bus, des.Cache, des.MaxInFlight = bus, m.newCache(t), m.maxInFlight
			res, err := des.Run(m.reqs, m.flushTimeout())
			if err != nil {
				t.Fatal(err)
			}
			want := collect()

			// Paced: the trace's arrivals span about a quarter wall second.
			paced := m.reqs[len(m.reqs)-1].Arrival / 0.25
			for _, speedup := range []float64{1e9, paced} {
				bus, collect := recordStream(t, 64*len(m.reqs))
				opts := m.search
				opts.Speedup, opts.FlushTimeout, opts.MaxInFlight = speedup, m.flushTimeout(), m.maxInFlight
				opts.Cache, opts.Bus = m.newCache(t), bus
				srv, err := NewServer(m.plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := srv.Serve(m.reqs)
				if err != nil {
					t.Fatal(err)
				}
				got := collect()
				if rep.Completed != res.Completed || rep.Rejected != res.Rejected {
					t.Errorf("speedup %g: completed/rejected %d/%d, sim %d/%d",
						speedup, rep.Completed, rep.Rejected, res.Completed, res.Rejected)
				}
				if math.Float64bits(rep.SustainedQPS) != math.Float64bits(res.QPS) {
					t.Errorf("speedup %g: sustained QPS %v, sim %v", speedup, rep.SustainedQPS, res.QPS)
				}
				if m.search.searchOn() && rep.SearchQueries == 0 {
					t.Errorf("speedup %g: the real search substrate saw no query", speedup)
				}
				if len(got) != len(want) {
					t.Errorf("speedup %g: %d events, sim published %d", speedup, len(got), len(want))
				}
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("speedup %g: event %d is %+v, sim's %+v", speedup, i, got[i], want[i])
						break
					}
				}
			}
		})
	}

	t.Run("switch-completion-order", func(t *testing.T) {
		m := mechanisms(t)[0]
		sched := m.plan.Sched
		sched.FormPolicy = engine.PolicySorted
		other, err := engine.Compile(m.plan.Pipe, sched, stageperf.New(hw.XPUC, hw.EPYCHost, m.plan.Pipe.Schema))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(m.plan, Options{Speedup: unpaced, Cache: m.newCache(t)})
		if err != nil {
			t.Fatal(err)
		}
		starts := []float64{0, m.reqs[len(m.reqs)/2].Arrival}
		switchAt(t, srv, starts[1], other)
		rep, err := srv.Serve(m.reqs)
		if err != nil {
			t.Fatal(err)
		}
		startedAt(t, rep, starts)
		if rep.Switches != 1 || rep.Completed != len(m.reqs) {
			t.Fatalf("%d switches, %d of %d completed", rep.Switches, rep.Completed, len(m.reqs))
		}
		if !sort.Float64sAreSorted(srv.coll.tally.Done()) {
			t.Error("completions recorded out of virtual-time order across the switch")
		}
	})
}

// TestSingleRequestQPS: one completion has no span to measure a rate over,
// so both executors report a completion rate of 0, not +Inf.
func TestSingleRequestQPS(t *testing.T) {
	pipe, prof, sched := caseISetup(t)
	plan, err := engine.Compile(pipe, sched, prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Burst(1)
	des, err := sim.NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Run(reqs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.QPS != 0 {
		t.Errorf("sim: %d completed at QPS %g, want 1 at 0", res.Completed, res.QPS)
	}
	srv, err := NewServer(plan, Options{Speedup: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.SustainedQPS != 0 {
		t.Errorf("serve: %d completed at QPS %g, want 1 at 0", rep.Completed, rep.SustainedQPS)
	}
}
