package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/obs"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/stageperf"
	"rago/internal/trace"
)

// TestServeSimMechanismGolden pins, bit for bit, the simulator paths the
// constant-shape goldens cannot see: heterogeneous shapes under every
// non-FIFO formation policy and chunked prefill, an evicting prefix cache
// with the answer tier on over a partly tagged trace, the shaped §5.3
// decode loop, sharded retrieval under MaxInFlight shedding, resources
// that serve two stage slots (Case IV's rewrite and rerank+prefix groups)
// from light load to overload, with immediate flush and under shedding, and
// the Case V fan-out join. Each run hashes its ServeResult (floats as raw bits) and its full obs event
// stream, so any change to a dispatch decision, a service price, a cache
// lookup order or an event's timestamp moves the digest.
func TestServeSimMechanismGolden(t *testing.T) {
	runs := []struct {
		name  string
		build func(t *testing.T) (*ServeSim, []trace.Request)
		flush float64
		want  string
	}{
		{"caseI-cached-bucketed", mechanismCaseI(engine.PolicyBucketed, 0), 0.05,
			"c5658eb11f6ebb50db401f6d3ff9fc95c53aa8c90661d1fc0122f07ec40dc2d9"},
		{"caseI-cached-sorted", mechanismCaseI(engine.PolicySorted, 0), 0.05,
			"6831256d9bf2b3ea3289605b5362ae017577e5062d9d96e7603fb0c2df08e62e"},
		{"caseI-cached-bucketed-chunked", mechanismCaseI(engine.PolicyBucketed, 256), 0.05,
			"cc51da793ba55789038a34c0397b62a2f210a775c8716058440e2f26d2276c07"},
		{"caseIII-shaped", mechanismCaseIII, 0.05,
			"674d22990b7fa4ea4bac291b36b29f8c0f20c198fd9560bd6b941dd7dce1602a"},
		{"caseI-sharded-shed", mechanismSharded, 0.05,
			"22c5432bba08fbfd792e7ebcb88470bd5171010dc57d364c1724b4c096b33167"},
		{"caseIV-shaped-0.3x", mechanismCaseIV(0.3, 0, 0), 0.05,
			"8b0ea0306927388302d84146ea4b323577bfdc1bc25da425c592ba9e4bb56b6e"},
		{"caseIV-shaped-1.5x", mechanismCaseIV(1.5, 0, 0), 0.05,
			"1f5bddf978a99fdca4525e9eda7366a070f8a5c747c0cae2a9da06575492c1dc"},
		{"caseIV-shaped-immediate", mechanismCaseIV(0.9, 0, 0), -1,
			"a228bd4b8029f8bfa967bebbab1ed3dfe1d58fd2962a779086e3c142facda4f8"},
		{"caseIV-shaped-shed", mechanismCaseIV(1.5, 40, 0), 0.2,
			"4cedc971975454af740a424f1f6f52ec0d1d5f556182b190df750263d867d2c7"},
		{"caseIV-shaped-chunked", mechanismCaseIV(1.2, 0, 256), 0.05,
			"c3b535d6be3ab6bbbcad40b58fcf6377e6a797f1407d1e076b1e7a29fa3ef143"},
		{"caseV-fanout-0.9x", mechanismCaseV, 0.05,
			"a07c27d7029c685c4754c7b78c95ceaa00d965dacca9b5b93aaf2cc0e7c9d886"},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			s, reqs := r.build(t)
			bus := obs.NewBus()
			sub := bus.Subscribe(64 * len(reqs))
			s.Bus = bus
			res, err := s.Run(reqs, r.flush)
			if err != nil {
				t.Fatal(err)
			}
			sub.Close()
			if sub.Dropped() != 0 {
				t.Fatalf("subscriber dropped %d events", sub.Dropped())
			}
			h := sha256.New()
			hashResult(h, res)
			events := 0
			for ev := range sub.Events() {
				hashInts(h, int64(ev.Kind), int64(math.Float64bits(ev.T)), int64(math.Float64bits(ev.Dur)),
					int64(ev.Req), int64(ev.Slot), int64(ev.N))
				events++
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != r.want {
				t.Errorf("%s drifted: digest %s, want %s (completed %d, rejected %d, %d events)",
					r.name, got, r.want, res.Completed, res.Rejected, events)
			}
		})
	}
}

func hashInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func hashResult(h hash.Hash, r ServeResult) {
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	hashInts(h, int64(r.Completed), int64(r.Rejected), bits(r.QPS), bits(r.SteadyQPS),
		bits(r.MeanTTFT), bits(r.MeanLatency), bits(r.MeanStall), bits(r.PadWaste),
		bits(r.FirstDone), bits(r.LastDone))
	if c := r.Cache; c != nil {
		hashInts(h, c.Requests, c.Hits, c.Misses, bits(c.HitRate), c.SavedTokens, c.Evictions,
			c.CachedTokens, int64(c.CachedChunks), c.AnswerHits, c.AnswerMisses,
			c.AnswerEvictions, int64(c.AnswerEntries))
	}
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

func mechanismCompile(t testing.TB, schema ragschema.Schema, sched engine.Schedule, shards int) *engine.Plan {
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

// mechanismShapes draws lognormal prompt/output lengths, leaving every
// fifth request at the schema constant so batches mix shaped and unshaped
// members.
func mechanismShapes(t testing.TB, reqs []trace.Request) []trace.Request {
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

// mechanismCaseI is shaped Case I at 1.3x capacity over a trace tagged
// one third by document popularity, one third by session reuse and one
// third untagged, against a prefix cache small enough to evict and an
// answer tier.
func mechanismCaseI(pol engine.BatchPolicy, quantum int) func(t *testing.T) (*ServeSim, []trace.Request) {
	return func(t *testing.T) (*ServeSim, []trace.Request) {
		schema := ragschema.CaseI(8e9, 1)
		sched := mechanismSchedule()
		sched.FormPolicy = pol
		sched.ChunkQuantum = quantum
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
			switch i % 3 {
			case 0:
				reqs[i] = zipf[i]
			case 1:
				reqs[i] = sess[i]
			default:
				reqs[i] = shaped[i]
			}
		}
		s, err := NewServeFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		s.Cache, err = cache.New(cache.Config{PrefixTokens: 6000, ChunkTokens: schema.ChunkTokens, AnswerEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		return s, reqs
	}
}

// mechanismCaseIII is the shaped §5.3 decode loop at 1.3x capacity.
func mechanismCaseIII(t *testing.T) (*ServeSim, []trace.Request) {
	sched := mechanismSchedule()
	sched.IterativeBatch = 8
	plan := mechanismCompile(t, ragschema.CaseIII(8e9, 4), sched, 0)
	base, err := trace.Poisson(600, 1.3*plan.Metrics.QPS, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return s, mechanismShapes(t, base)
}

// mechanismSharded is Case I on a 4-shard retrieval tier at fanout 2,
// overdriven 2x against an admission bound of 160.
func mechanismSharded(t *testing.T) (*ServeSim, []trace.Request) {
	sched := mechanismSchedule()
	sched.NProbe = 16
	sched.ShardFanout = 2
	plan := mechanismCompile(t, ragschema.CaseI(8e9, 1), sched, 4)
	reqs, err := trace.Poisson(1500, 2*plan.Metrics.QPS, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxInFlight = 160
	return s, reqs
}

// mechanismCaseIV is shaped Case IV at load times its plan's capacity,
// with the rewrite prefix+decode and the rerank+prefix stages each sharing
// one resource, under an admission bound of maxInFlight (0 admits all) and
// chunked prefill at quantum tokens (0 runs whole batches).
func mechanismCaseIV(load float64, maxInFlight, quantum int) func(t *testing.T) (*ServeSim, []trace.Request) {
	return func(t *testing.T) (*ServeSim, []trace.Request) {
		sched := engine.Schedule{
			Groups: []engine.GroupSchedule{
				{Stages: []int{0, 1}, Chips: 4, Batch: 4},
				{Stages: []int{3, 4}, Chips: 16, Batch: 4},
			},
			RetrievalServers: 16,
			RetrievalBatch:   4,
			DecodeChips:      16,
			DecodeBatch:      64,
			DecodeReplicas:   4,
			ChunkQuantum:     quantum,
		}
		plan := mechanismCompile(t, ragschema.CaseIV(8e9), sched, 0)
		base, err := trace.Poisson(800, load*plan.Metrics.QPS, 11)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServeFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		s.MaxInFlight = maxInFlight
		return s, mechanismShapes(t, base)
	}
}

// mechanismCaseV is the two-source Case V fan-out, joining on the
// reranker, at 0.9x its plan's capacity.
func mechanismCaseV(t *testing.T) (*ServeSim, []trace.Request) {
	sched := engine.Schedule{
		Groups:           []engine.GroupSchedule{{Stages: []int{2, 3}, Chips: 16, Batch: 4}},
		RetrievalServers: 8,
		RetrievalBatch:   4,
		DecodeChips:      16,
		DecodeBatch:      64,
		DecodeReplicas:   4,
	}
	plan := mechanismCompile(t, ragschema.CaseV(8e9, 2), sched, 0)
	reqs, err := trace.Poisson(800, 0.9*plan.Metrics.QPS, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServeFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return s, reqs
}
