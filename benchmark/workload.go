package main

import (
	"fmt"
	"math/rand"
	"time"

	"rago/internal/cache"
	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/retrieval"
	"rago/internal/stageperf"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// refSeconds is the -seconds value the frozen trace lengths below are sized
// for. Other values scale the request counts (never the rates or the
// speedups, which set how hard the harness is driven).
const refSeconds = 22.0

// The stable corpus: index data and calibration queries are the same on
// every run, so index build time and the recall surface do not move with
// -seed. Arrivals, lengths, reuse tags and the held-out queries do.
const (
	corpusSeed  = 3
	corpusDim   = 32
	corpusNList = 64
	corpusSize  = 5000
	// Eight wide clusters under 64 cells: cells subdivide clusters, so true
	// neighbours straddle cells and shards, and recall moves with nprobe
	// and fanout (with one cluster per cell it is flat).
	corpusClusters = 8
	corpusSpread   = 1.5
	evalQueries    = 256
	searchK        = 10
)

// scenario is one workload's frozen definition. Served schedules, arrival
// rates and speedups are constants here and are never derived from the
// optimizer's output or the analytic model at run time, so a change to one
// layer cannot silently change another phase's input.
type scenario struct {
	name   string
	schema ragschema.Schema

	// Plan phase. planShare is the share of -seconds its repetitions may
	// spend (the searches differ 100x in cost between workloads).
	cluster   hw.Cluster
	planShare float64
	planDims  bool // search formation policies, chunk quanta, nprobe, fanout
	library   bool // build a control.Library from the frontier

	// Serving phases. scheds holds one schedule, or the controller's
	// capacity ladder in ascending order (the last is the one served
	// unpaced and simulated as the static-peak reference).
	scheds      []engine.Schedule
	rateHi      float64 // overdrive, ~1.5x the schedule's capacity
	rateLo      float64 // ~0.8x capacity
	speedHi     float64 // virtual seconds per wall second, paced rate_hi run
	speedLo     float64
	nHi, nLo    int // trace lengths at refSeconds
	nDispatch   int // unpaced trace length, sized so one repetition takes >= 1 s
	flush       float64
	maxInFlight int
	triggers    bool // iterative: decorate the trace with trigger positions

	// Retrieval substrate and reuse.
	index   bool
	sharded bool // 4 shards x 2 replicas through Options.Sharded
	nprobe  int
	fanout  int
	reuse   bool // session/Zipf chunk tags + lognormal lengths + cache
	cache   cache.Config

	// Diurnal control run: one Controller.Run replaces both paced runs.
	diurnal bool
}

// caseIVSched is a Case IV schedule of the shape internal/serve's and
// internal/control's tests use: rewrite prefix+decode on one group, rerank
// + prefix on another.
func caseIVSched(gc1, gc2, b, dc, db, dr, rb int) engine.Schedule {
	return engine.Schedule{
		Groups: []engine.GroupSchedule{
			{Stages: []int{0, 1}, Chips: gc1, Batch: b}, // rewrite prefix+decode
			{Stages: []int{3, 4}, Chips: gc2, Batch: b}, // rerank + prefix
		},
		RetrievalServers: 16, RetrievalBatch: rb,
		DecodeChips: dc, DecodeBatch: db, DecodeReplicas: dr,
	}
}

// Diurnal trace constants (internal/control's acceptance test).
const (
	diurnalBase   = 45.0
	diurnalAmp    = 0.8
	diurnalPeriod = 150.0
	diurnalCycles = 2.5
)

var scenarios = []scenario{
	{
		name:    "c4-steady",
		schema:  ragschema.CaseIV(8e9),
		cluster: hw.DefaultCluster(), planShare: 0.3,
		scheds: []engine.Schedule{caseIVSched(4, 16, 4, 16, 64, 4, 4)}, // 36 chips, ~58 QPS
		rateHi: 87, rateLo: 46,
		speedHi: 120, speedLo: 80,
		nHi: 20000, nLo: 20000, nDispatch: 100000,
		flush: 0.05,
	},
	{
		name:    "c1-reuse-sharded",
		schema:  ragschema.CaseI(8e9, 1),
		cluster: hw.DefaultCluster(), planShare: 0.27,
		planDims: true,
		scheds: []engine.Schedule{{
			Groups:           []engine.GroupSchedule{{Stages: []int{1}, Chips: 2, Batch: 8}},
			RetrievalServers: 16, RetrievalBatch: 8,
			DecodeChips: 16, DecodeBatch: 128, DecodeReplicas: 4,
			FormPolicy: engine.PolicyBucketed, ChunkQuantum: 256,
			NProbe: 16, ShardFanout: 2,
		}},
		rateHi: 70, rateLo: 32,
		speedHi: 100, speedLo: 100,
		nHi: 14000, nLo: 17000, nDispatch: 6000,
		flush: 0.05,
		index: true, sharded: true, nprobe: 16, fanout: 2,
		reuse: true,
		cache: cache.Config{PrefixTokens: 3000, AnswerEntries: 256},
	},
	{
		name:    "c3-iterative",
		schema:  ragschema.CaseIII(8e9, 4),
		cluster: hw.DefaultCluster(), planShare: 0.05,
		scheds: []engine.Schedule{{
			Groups:           []engine.GroupSchedule{{Stages: []int{1}, Chips: 16, Batch: 4}},
			RetrievalServers: 16, RetrievalBatch: 4,
			DecodeChips: 16, DecodeBatch: 32, DecodeReplicas: 4,
			IterativeBatch: 16,
		}},
		rateHi: 56, rateLo: 27,
		speedHi: 20, speedLo: 20,
		nHi: 3200, nLo: 4900, nDispatch: 2000,
		flush:    0.25,
		triggers: true,
		index:    true, nprobe: 8,
	},
	{
		name:    "c4-diurnal-control",
		schema:  ragschema.CaseIV(8e9),
		cluster: hw.DefaultCluster(), planShare: 0.25,
		library: true,
		scheds: []engine.Schedule{
			caseIVSched(4, 8, 4, 8, 16, 2, 4),    // ~30 QPS, 20 chips
			caseIVSched(4, 16, 4, 16, 64, 4, 4),  // ~58 QPS, 36 chips
			caseIVSched(8, 32, 8, 32, 128, 8, 8), // ~119 QPS, 72 chips
		},
		rateHi: diurnalBase, rateLo: diurnalBase,
		speedHi: 45, speedLo: 45,
		nHi: int(diurnalBase * diurnalPeriod * diurnalCycles), nDispatch: 30000,
		flush:       0.05,
		maxInFlight: 4096,
		diurnal:     true,
	},
}

// cacheConfig is the reuse cache's sizing with the schema's chunk length.
func (sc *scenario) cacheConfig() cache.Config {
	cfg := sc.cache
	cfg.ChunkTokens = sc.schema.ChunkTokens
	return cfg
}

func scenarioByName(name string) (*scenario, error) {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// world is everything set-up produces: what the timed phases consume.
type world struct {
	sc   *scenario
	pipe pipeline.Pipeline
	prof *stageperf.Profiler
	// plans are the compiled scheds; top() is the one served directly.
	plans []*engine.Plan
	lib   *control.Library

	traceHi, traceLo, traceDispatch []trace.Request
	shapes                          []engine.Shape // 128-draw length sample the optimizer prices

	data    [][]float32
	ix      *vectordb.IVFPQ
	sh      *vectordb.Sharded
	flat    *vectordb.FlatIndex
	queries [][]float32
	truth   [][]vectordb.Result
	recall  *retrieval.RecallModel

	// Set-up step timings for the per-layer ledger (seconds).
	steps map[string]float64
}

func (w *world) top() *engine.Plan { return w.plans[len(w.plans)-1] }

// sizes scales the frozen trace lengths to the requested measuring time.
type sizes struct {
	scale  float64
	corpus int
	quick  bool // smoke size: shrink the schedule search, skip statistical checks
}

func (s sizes) n(ref int) int {
	n := int(float64(ref)*s.scale + 0.5)
	if n < 200 {
		n = 200
	}
	return n
}

// nearCorpus draws queries near stored documents: a random data vector plus
// Gaussian noise, so recall against the flat index is meaningful.
func nearCorpus(data [][]float32, n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		src := data[rng.Intn(len(data))]
		v := make([]float32, len(src))
		for d := range v {
			v[d] = src[d] + float32(rng.NormFloat64()*0.5)
		}
		out[i] = v
	}
	return out
}

var (
	calibNProbes = []int{4, 16, 64}
	calibFanouts = []int{1, 2, 4}
)

// setup builds the workload's inputs from the seed. rec may be disabled.
func setup(sc *scenario, seed int64, sz sizes, rec *recorder) (*world, error) {
	w := &world{sc: sc, steps: map[string]float64{}}
	step := func(name string, f func() error) error {
		var err error
		start := time.Now()
		rec.do(name, func() { err = f() })
		w.steps[name] += time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	if err := step("trace.gen", func() error { return w.genTraces(seed, sz) }); err != nil {
		return nil, err
	}
	if sc.index {
		if err := w.buildIndex(seed, sz, step); err != nil {
			return nil, err
		}
	}
	if sc.reuse {
		if err := step("cache.ReplayCredits", func() error {
			_, _, err := cache.ReplayCredits(sc.cacheConfig(), w.traceLo, sc.schema.PrefixTokens)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := step("engine.Compile", func() error {
		pipe, err := pipeline.Build(sc.schema)
		if err != nil {
			return err
		}
		w.pipe = pipe
		w.prof = stageperf.New(hw.XPUC, hw.EPYCHost, sc.schema)
		if sc.sharded {
			w.prof.Shards = w.sh.Shards()
			w.prof.RecallMod = w.recall
		}
		for _, s := range sc.scheds {
			plan, err := engine.Compile(pipe, s, w.prof)
			if err != nil {
				return fmt.Errorf("frozen schedule does not compile: %w", err)
			}
			w.plans = append(w.plans, plan)
		}
		if sc.diurnal {
			w.lib, err = control.NewLibraryFromPlans(w.plans)
			if err == nil && len(w.lib.Entries) != len(w.plans) {
				err = fmt.Errorf("ladder pruned to %d entries, want %d", len(w.lib.Entries), len(w.plans))
			}
		}
		return err
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// reuseLengths are the heavy-tailed prompt and output length distributions
// of the reuse workload.
func reuseLengths() (prompt, output trace.LengthDist, err error) {
	if prompt, err = trace.LognormalLengths(512, 0.8, 4096); err != nil {
		return
	}
	output, err = trace.LognormalLengths(256, 0.7, 1024)
	return
}

func (w *world) genTraces(seed int64, sz sizes) error {
	sc := w.sc
	gen := func(n int, rate float64, seed int64) ([]trace.Request, error) {
		if sc.diurnal {
			return trace.Diurnal(n, diurnalBase, diurnalAmp, diurnalPeriod, seed)
		}
		reqs, err := trace.Poisson(n, rate, seed)
		if err != nil {
			return nil, err
		}
		if sc.triggers {
			reqs = trace.WithTriggers(reqs, sc.schema.RetrievalFrequency-1, sc.schema.DecodeTokens, seed+7)
		}
		if sc.reuse {
			reqs, err = trace.WithSessions(reqs, 64, 0.3, 20000, sc.schema.NeighborsPerQuery, 1.08, seed+1)
			if err != nil {
				return nil, err
			}
			prompt, output, err := reuseLengths()
			if err != nil {
				return nil, err
			}
			reqs = trace.WithShapes(reqs, prompt, output, seed+2)
		}
		return reqs, nil
	}
	var err error
	if w.traceHi, err = gen(sz.n(sc.nHi), sc.rateHi, seed*16+1); err != nil {
		return err
	}
	if sc.diurnal {
		w.traceLo = w.traceHi
	} else if w.traceLo, err = gen(sz.n(sc.nLo), sc.rateLo, seed*16+2); err != nil {
		return err
	}
	// The unpaced trace only differs in length: arrivals are all overdue
	// at Speedup 1e9, so its rate is immaterial.
	if w.traceDispatch, err = gen(sz.n(sc.nDispatch), sc.rateHi, seed*16+3); err != nil {
		return err
	}
	if sc.planDims {
		// The optimizer's length sample is part of the stable prompt set:
		// drawn from the trace's distributions at a fixed seed, so the
		// plan phase's input does not move with -seed.
		prompt, output, err := reuseLengths()
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(corpusSeed))
		for i := 0; i < 128; i++ {
			w.shapes = append(w.shapes, engine.Shape{PromptTokens: prompt.Sample(rng), OutputTokens: output.Sample(rng)})
		}
	}
	return nil
}

func (w *world) buildIndex(seed int64, sz sizes, step func(string, func() error) error) error {
	w.data = vectordb.GenClustered(sz.corpus, corpusDim, corpusClusters, corpusSpread, corpusSeed)
	if err := step("vectordb.BuildIVFPQ", func() (err error) {
		w.ix, err = vectordb.BuildIVFPQ(w.data, corpusNList, corpusDim/2, corpusSeed)
		return err
	}); err != nil {
		return err
	}
	if err := step("vectordb.FlatTruth", func() (err error) {
		w.flat = vectordb.NewFlat(corpusDim)
		if err = w.flat.Add(w.data...); err != nil {
			return err
		}
		w.queries = nearCorpus(w.data, evalQueries, seed*16+4)
		w.truth, err = w.flat.SearchBatch(w.queries, searchK)
		return err
	}); err != nil {
		return err
	}
	if !w.sc.sharded {
		return nil
	}
	return step("vectordb.CalibrateRecall", func() (err error) {
		if w.sh, err = vectordb.NewSharded(w.ix, 4, 2); err != nil {
			return err
		}
		calib := nearCorpus(w.data, 64, corpusSeed+8)
		grid, err := w.sh.CalibrateRecall(w.flat, calib, searchK, calibNProbes, calibFanouts)
		if err != nil {
			return err
		}
		w.recall, err = retrieval.NewRecallModel(calibNProbes, calibFanouts, grid)
		return err
	})
}

// planOptions are the schedule-search options of the workload's plan phase.
func (w *world) planOptions(sz sizes) core.Options {
	opts := core.DefaultOptions(w.sc.cluster)
	if sz.quick {
		opts.MaxPreBatch, opts.MaxRetrievalBatch, opts.MaxDecodeBatch = 8, 32, 256
	}
	if w.sc.planDims {
		opts.Shapes = w.shapes
		opts.Policies = []engine.BatchPolicy{engine.PolicyFIFO, engine.PolicyBucketed, engine.PolicySorted}
		opts.ChunkQuanta = []int{0, 256}
		opts.NProbes = calibNProbes
		opts.ShardFanouts = calibFanouts
	}
	return opts
}

// newOptimizer is one cold optimizer for the plan phase: a fresh profiler
// with empty memo tables.
func (w *world) newOptimizer(sz sizes) (*core.Optimizer, error) {
	o, err := core.NewOptimizer(w.sc.schema, w.planOptions(sz))
	if err != nil {
		return nil, err
	}
	if w.sc.sharded {
		o.Prof.Shards = w.sh.Shards()
		o.Prof.RecallMod = w.recall
	}
	return o, nil
}

// newCache is a fresh reuse cache for one executor run (nil when the
// workload has none). Executors never share an instance.
func (w *world) newCache() (*cache.Cache, error) {
	if !w.sc.reuse {
		return nil, nil
	}
	return cache.New(w.sc.cacheConfig())
}
