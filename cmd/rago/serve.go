package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"rago/internal/cache"
	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/obs"
	"rago/internal/perf"
	"rago/internal/retrieval"
	"rago/internal/serve"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// traceFlags selects the request trace: a file, or one of the synthetic
// arrival processes (stationary and time-varying).
type traceFlags struct {
	tracePath *string
	saveTrace *string
	arrivals  *string
	n         *int
	rate      *float64
	seed      *int64
	amplitude *float64
	period    *float64
	shape     *float64
	mmppRates *string
	sojourn   *float64
	promptLen *string
	outLen    *string
	shapeMax  *int

	docZipf         *float64
	docCorpus       *int
	sessions        *int
	sessionAffinity *float64
}

func addTraceFlags(fs *flag.FlagSet) traceFlags {
	return traceFlags{
		tracePath: fs.String("trace", "", "replay a recorded trace file (.json or .csv) instead of generating one"),
		saveTrace: fs.String("save-trace", "", "write the generated trace to this file (.json or .csv)"),
		arrivals:  fs.String("arrivals", "poisson", "arrival process: poisson|burst|diurnal|mmpp|gamma"),
		n:         fs.Int("n", 10000, "trace length (requests)"),
		rate:      fs.Float64("rate", 0, "mean arrival rate in requests/s (0 = auto from the chosen schedule)"),
		seed:      fs.Int64("seed", 42, "trace seed"),
		amplitude: fs.Float64("amplitude", 0.8, "diurnal: sinusoid amplitude in [0,1]"),
		period:    fs.Float64("period", 300, "diurnal: cycle length in virtual seconds"),
		shape:     fs.Float64("shape", 0.5, "gamma: inter-arrival shape (<1 = heavy-tailed bursts)"),
		mmppRates: fs.String("mmpp-rates", "", "mmpp: comma-separated state rates in requests/s (default 0.2x,2x the mean rate)"),
		sojourn:   fs.Float64("mmpp-sojourn", 60, "mmpp: mean state sojourn in virtual seconds"),
		promptLen: fs.String("prompt-len", "", "per-request prompt length distribution: const:N | lognormal:MEDIAN,SIGMA | hist:TOK=W;TOK=W;... (empty = schema constant)"),
		outLen:    fs.String("out-len", "", "per-request output length distribution, same spec syntax as -prompt-len"),
		shapeMax:  fs.Int("shape-max", 8192, "token clamp for sampled lengths (the model-context bound)"),

		docZipf:         fs.Float64("doc-zipf", 0, "tag requests with Zipfian-popular retrieved-chunk IDs at this skew (>1, hotter is larger; 0 = untagged)"),
		docCorpus:       fs.Int("doc-corpus", 10000, "reuse: retrieval corpus size in chunks"),
		sessions:        fs.Int("sessions", 0, "reuse: overlay session affinity across this many concurrent sessions (0 = popularity only)"),
		sessionAffinity: fs.Float64("session-affinity", 0.5, "reuse: probability a session's request re-retrieves its previous context verbatim"),
	}
}

// applyReuse decorates the trace with retrieved-chunk ID tags when
// -doc-zipf is set: Zipfian document popularity, optionally overlaid with
// session affinity. perRequest is the schema's chunks-per-request
// (NeighborsPerQuery x QueriesPerRetrieval). Tags are what the prefix/KV
// cache keys on; an untagged trace leaves any cache idle.
func (tf traceFlags) applyReuse(reqs []trace.Request, desc string, perRequest int) ([]trace.Request, string, error) {
	if *tf.docZipf == 0 {
		return reqs, desc, nil
	}
	// Decorrelate the reuse stream from the arrival and shape streams
	// (same rationale as applyShapes' xor).
	seed := *tf.seed ^ 0x72657573
	var err error
	if *tf.sessions > 0 {
		reqs, err = trace.WithSessions(reqs, *tf.sessions, *tf.sessionAffinity, *tf.docCorpus, perRequest, *tf.docZipf, seed)
		desc = fmt.Sprintf("%s, reuse: zipf %.2f over %d chunks, %d sessions (affinity %.2f)",
			desc, *tf.docZipf, *tf.docCorpus, *tf.sessions, *tf.sessionAffinity)
	} else {
		reqs, err = trace.WithDocZipf(reqs, *tf.docCorpus, perRequest, *tf.docZipf, seed)
		desc = fmt.Sprintf("%s, reuse: zipf %.2f over %d chunks", desc, *tf.docZipf, *tf.docCorpus)
	}
	if err != nil {
		return nil, "", err
	}
	return reqs, desc, nil
}

// parseLengthDist parses a -prompt-len/-out-len spec into a LengthDist.
func parseLengthDist(spec string, maxTok int) (trace.LengthDist, error) {
	if spec == "" {
		return trace.LengthDist{}, nil
	}
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "const":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return trace.LengthDist{}, fmt.Errorf("serve: bad const length %q", rest)
		}
		if n > maxTok {
			return trace.LengthDist{}, fmt.Errorf("serve: const length %d exceeds -shape-max %d (the model-context clamp)", n, maxTok)
		}
		return trace.ConstantLengths(n)
	case "lognormal":
		parts := strings.Split(rest, ",")
		if len(parts) != 2 {
			return trace.LengthDist{}, fmt.Errorf("serve: lognormal spec wants MEDIAN,SIGMA, got %q", rest)
		}
		median, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		sigma, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			return trace.LengthDist{}, fmt.Errorf("serve: bad lognormal spec %q", rest)
		}
		return trace.LognormalLengths(median, sigma, maxTok)
	case "hist":
		var buckets []trace.LengthBucket
		for _, pair := range strings.Split(rest, ";") {
			tokStr, wStr, ok := strings.Cut(pair, "=")
			if !ok {
				return trace.LengthDist{}, fmt.Errorf("serve: hist entry %q wants TOK=WEIGHT", pair)
			}
			tok, err1 := strconv.Atoi(strings.TrimSpace(tokStr))
			w, err2 := strconv.ParseFloat(strings.TrimSpace(wStr), 64)
			if err1 != nil || err2 != nil {
				return trace.LengthDist{}, fmt.Errorf("serve: bad hist entry %q", pair)
			}
			buckets = append(buckets, trace.LengthBucket{Tokens: tok, Weight: w})
		}
		return trace.EmpiricalLengths(buckets, maxTok)
	default:
		return trace.LengthDist{}, fmt.Errorf("serve: unknown length distribution %q (const|lognormal|hist)", kind)
	}
}

// applyShapes decorates the trace with per-request lengths when either
// spec flag is set (recorded traces included — shaping a replayed arrival
// process is a supported way to stress a trace). The description gains the
// shape summary.
func (tf traceFlags) applyShapes(reqs []trace.Request, desc string) ([]trace.Request, string, error) {
	prompt, err := parseLengthDist(*tf.promptLen, *tf.shapeMax)
	if err != nil {
		return nil, "", err
	}
	output, err := parseLengthDist(*tf.outLen, *tf.shapeMax)
	if err != nil {
		return nil, "", err
	}
	if prompt.IsZero() && output.IsZero() {
		return reqs, desc, nil
	}
	// Decorrelate the shape stream from the arrival stream: both are
	// seeded from -seed, but reusing the identical source would make
	// request lengths a deterministic function of the same uniforms that
	// shaped the inter-arrival gaps.
	reqs = trace.WithShapes(reqs, prompt, output, *tf.seed^0x73686170)
	part := func(name, spec string) string {
		if spec == "" {
			return name + " schema-const"
		}
		return name + " " + spec
	}
	return reqs, fmt.Sprintf("%s, shapes: %s, %s (clamp %d)",
		desc, part("prompt", *tf.promptLen), part("out", *tf.outLen), *tf.shapeMax), nil
}

// build materializes the trace: the arrivals, then the shape and reuse
// decorations, written to -save-trace when it is set (alongside -trace that
// re-persists the loaded trace: format conversion, normalization, added
// shapes and reuse tags). rate0 is the auto mean rate when -rate is unset;
// perRequest is the schema's retrieved-chunks-per-request, used by the
// reuse decorators. The description is human-readable for the preamble.
func (tf traceFlags) build(rate0 float64, perRequest int) ([]trace.Request, string, error) {
	reqs, desc, err := tf.base(rate0)
	if err != nil {
		return nil, "", err
	}
	reqs, desc, err = tf.applyShapes(reqs, desc)
	if err != nil {
		return nil, "", err
	}
	reqs, desc, err = tf.applyReuse(reqs, desc, perRequest)
	if err != nil {
		return nil, "", err
	}
	if *tf.saveTrace != "" {
		if err := trace.Save(*tf.saveTrace, reqs); err != nil {
			return nil, "", err
		}
	}
	return reqs, desc, nil
}

// base is the undecorated trace: the -trace file, or the -arrivals
// process at -rate (rate0 when unset).
func (tf traceFlags) base(rate0 float64) ([]trace.Request, string, error) {
	if *tf.tracePath != "" {
		reqs, err := trace.Load(*tf.tracePath)
		if err != nil {
			return nil, "", err
		}
		if len(reqs) == 0 {
			return nil, "", fmt.Errorf("serve: trace file %s is empty", *tf.tracePath)
		}
		return reqs, fmt.Sprintf("%d requests from %s", len(reqs), *tf.tracePath), nil
	}
	rate := *tf.rate
	if rate <= 0 {
		rate = rate0
	}
	var (
		reqs []trace.Request
		desc string
		err  error
	)
	switch strings.ToLower(*tf.arrivals) {
	case "poisson":
		reqs, err = trace.Poisson(*tf.n, rate, *tf.seed)
		desc = fmt.Sprintf("%d Poisson arrivals at %.1f req/s", *tf.n, rate)
	case "burst":
		reqs = trace.Burst(*tf.n)
		desc = fmt.Sprintf("burst of %d requests", *tf.n)
	case "diurnal":
		reqs, err = trace.Diurnal(*tf.n, rate, *tf.amplitude, *tf.period, *tf.seed)
		desc = fmt.Sprintf("%d diurnal arrivals, base %.1f req/s, amplitude %.2f, period %.0fs",
			*tf.n, rate, *tf.amplitude, *tf.period)
	case "mmpp":
		rates := []float64{0.2 * rate, 2 * rate}
		if *tf.mmppRates != "" {
			rates = rates[:0]
			for _, f := range strings.Split(*tf.mmppRates, ",") {
				r, perr := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if perr != nil {
					return nil, "", fmt.Errorf("serve: bad -mmpp-rates entry %q", f)
				}
				rates = append(rates, r)
			}
		}
		reqs, err = trace.MMPP(*tf.n, rates, *tf.sojourn, *tf.seed)
		desc = fmt.Sprintf("%d MMPP arrivals, states %v req/s, sojourn %.0fs", *tf.n, rates, *tf.sojourn)
	case "gamma":
		reqs, err = trace.Gamma(*tf.n, rate, *tf.shape, *tf.seed)
		desc = fmt.Sprintf("%d Gamma arrivals at %.1f req/s, shape %.2f", *tf.n, rate, *tf.shape)
	default:
		return nil, "", fmt.Errorf("serve: unknown -arrivals %q (poisson|burst|diurnal|mmpp|gamma)", *tf.arrivals)
	}
	if err != nil {
		return nil, "", err
	}
	if len(reqs) == 0 {
		return nil, "", fmt.Errorf("serve: empty trace (need -n > 0 or a non-empty -trace file)")
	}
	return reqs, desc, nil
}

// searchSample caps the shape sample the schedule search prices: pricing
// is linear in the sample, and a strided sample of this size reads within
// a few percent of the full trace.
const searchSample = 128

// searchShapes is the shape sample the schedule search prices: at most
// searchSample of the served trace's shapes, at an even stride over it,
// or nil when the trace is unshaped. applyShapes draws lengths in request
// order from a seed of their own, so shaping -n placeholder requests gives
// exactly the shapes the generated trace carries at whatever rate the
// search then sets.
func (tf traceFlags) searchShapes() ([]engine.Shape, error) {
	var (
		reqs []trace.Request
		err  error
	)
	if *tf.tracePath != "" {
		if reqs, _, err = tf.base(0); err != nil {
			return nil, err
		}
	} else {
		reqs = make([]trace.Request, max(*tf.n, 0))
	}
	reqs, _, err = tf.applyShapes(reqs, "")
	if err != nil {
		return nil, err
	}
	shapes := traceShapes(reqs)
	stride := (len(shapes) + searchSample - 1) / searchSample
	var sample []engine.Shape
	for i := 0; i < len(shapes); i += stride {
		sample = append(sample, shapes[i])
	}
	return sample, nil
}

// runServe implements `rago serve`: optimize the workload, then either
// replay an open-loop trace through one frontier point's live runtime, or
// (with -controller) put the SLO-aware online controller in charge of a
// plan library built from the whole frontier.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	tf := addTraceFlags(fs)
	var (
		point        = fs.String("point", "maxqps", "frontier point to serve: maxqps|minttft|<index>")
		speedup      = fs.Float64("speedup", 0, "virtual seconds served per wall second (0 = auto, targeting ~10s wall)")
		flush        = fs.Float64("flush", 0.05, "partial-batch flush timeout in virtual seconds (0 = dispatch partial batches immediately)")
		maxInflight  = fs.Int("max-inflight", 0, "admission bound; arrivals beyond it are shed (0 = admit all)")
		jsonOut      = fs.Bool("json", false, "print the full report as JSON on stdout (preamble goes to stderr)")
		metricsAddr  = fs.String("metrics-addr", "", "serve streaming metrics on this address (/window, /stream SSE, /debug/vars, /debug/pprof/); \":0\" picks a free port")
		spanTrace    = fs.String("span-trace", "", "write a Chrome trace_event JSON of the replay to this file (load in https://ui.perfetto.dev)")
		windowEvery  = fs.Float64("window-every", 2, "stream a telemetry window snapshot onto the bus every this many virtual seconds (with -metrics-addr)")
		cacheTokens  = fs.Int("cache-tokens", 0, "prefix/KV cache token budget over retrieved chunks (0 = no prefix cache; pair with -doc-zipf so requests carry chunk tags)")
		cacheAnswers = fs.Int("cache-answers", 0, "exact-match answer cache entries short-circuiting repeated requests (0 = no answer tier)")
		batchPolicy  = fs.String("batch-policy", "fifo", "prefix batch-formation policy: fifo|bucketed|sorted")
		chunkPrefill = fs.Int("chunk-prefill", 0, "chunked-prefill quantum in tokens (0 = off): prefix batches pad to the quantum instead of the batch max")

		dbVectors = fs.Int("db", 0, "build a real IVF-PQ index of this many vectors on the retrieval path (0 = model-paced only)")
		dbDim     = fs.Int("db-dim", 64, "real index dimensionality")
		k         = fs.Int("k", 10, "neighbors per real query")
		nprobe    = fs.Int("nprobe", 8, "probed cells per real query")
		shards    = fs.Int("shards", 0, "shard the real index across this many scatter-gather shards (requires -db; 0/1 = single index)")
		replicas  = fs.Int("replicas", 1, "replicas per shard in the sharded retrieval tier")
		nprobes   = fs.String("nprobes", "", "comma-separated nprobe values the schedule search enumerates as knobs (0 = tier base; empty = base only)")
		fanouts   = fs.String("fanouts", "", "comma-separated shard-fanout values the schedule search enumerates (0 = all shards; empty = all shards only)")

		controller = fs.Bool("controller", false, "run the SLO-aware online controller over a plan library instead of one static schedule")
		sloTTFT    = fs.Float64("slo-ttft", 1.0, "controller: p99 TTFT objective in virtual seconds")
		sloTPOT    = fs.Float64("slo-tpot", 0, "controller: p99 TPOT objective in virtual seconds (0 = unbounded)")
		ctrlWindow = fs.Float64("ctrl-window", 30, "controller: telemetry window in virtual seconds")
		ctrlTick   = fs.Float64("ctrl-interval", 10, "controller: decision interval in virtual seconds")
		headroom   = fs.Float64("headroom", 1.25, "controller: capacity margin over the observed arrival rate")
		holddown   = fs.Float64("holddown", 0, "controller: minimum virtual seconds between scale-downs (0 = 3 intervals)")
		minRecall  = fs.Float64("min-recall", 0, "controller: recall@k floor plan switches respect under overload (0 = no floor)")
	)
	fs.Parse(args)

	schema, cluster, err := wf.load()
	if err != nil {
		log.Fatal(err)
	}

	// Preamble goes to stderr under -json so stdout stays machine-readable.
	info := os.Stdout
	if *jsonOut {
		info = os.Stderr
	}

	pol, err := engine.ParseBatchPolicy(*batchPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if *chunkPrefill < 0 {
		log.Fatal("-chunk-prefill must be non-negative")
	}

	npList, err := parseIntList("-nprobes", *nprobes)
	if err != nil {
		log.Fatal(err)
	}
	foList, err := parseIntList("-fanouts", *fanouts)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 1 && *dbVectors <= 0 {
		log.Fatal("-shards needs a real index: set -db")
	}
	if *dbVectors > 0 && *shards <= 1 && (len(npList) > 0 || len(foList) > 0) {
		log.Fatal("-nprobes/-fanouts against a real index need -shards > 1 (the single-index path serves at the fixed -nprobe)")
	}

	fmt.Fprintf(info, "workload: %s\n", schema.Name)
	fmt.Fprintf(info, "cluster:  %d hosts x %d %s = %d XPUs\n", cluster.Hosts, cluster.Host.XPUsPerHost, cluster.Chip.Name, cluster.XPUs())

	opts := serve.Options{Speedup: *speedup, FlushTimeout: *flush, MaxInFlight: *maxInflight}
	if *flush == 0 {
		opts.FlushTimeout = -1 // Options semantics: negative = immediate
	}

	// Chunks per request: what one retrieval round appends to the prompt.
	perRequest := schema.NeighborsPerQuery * schema.QueriesPerRetrieval
	if perRequest < 1 {
		perRequest = 1
	}
	cacheCfg := cache.Config{PrefixTokens: *cacheTokens, ChunkTokens: schema.ChunkTokens, AnswerEntries: *cacheAnswers}
	if *cacheTokens > 0 || *cacheAnswers > 0 {
		c, err := cache.New(cacheCfg)
		if err != nil {
			log.Fatal(err)
		}
		opts.Cache = c
	}

	// Observability wiring: one bus feeds the optional metrics endpoint
	// and the optional span tracer; with neither flag the runtime keeps
	// its nil-bus zero-cost fast path.
	var tracer *obs.Tracer
	if *metricsAddr != "" || *spanTrace != "" {
		bus := obs.NewBus()
		opts.Bus = bus
		opts.WindowEvery = *windowEvery
		if *metricsAddr != "" {
			msrv, err := obs.NewMetricsServer(bus, *metricsAddr)
			if err != nil {
				log.Fatal(err)
			}
			defer msrv.Close()
			fmt.Fprintf(info, "metrics:  http://%s  (/window /stream /debug/vars /debug/pprof/)\n", msrv.Addr())
		}
		if *spanTrace != "" {
			tracer = obs.NewTracer()
			if err := tracer.Attach(bus, 0); err != nil {
				log.Fatal(err)
			}
		}
	}
	// flushTrace renders the recorded spans once the replay drains; both
	// the static and the controlled paths call it before printing reports.
	flushTrace := func() {
		if tracer == nil {
			return
		}
		tracer.Close()
		f, err := os.Create(*spanTrace)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(info, "span trace: wrote %s (%d events, %d dropped) — load in https://ui.perfetto.dev\n",
			*spanTrace, len(tracer.Events()), tracer.Dropped())
	}
	var (
		sharded   *vectordb.Sharded
		recallMod *retrieval.RecallModel
	)
	if *dbVectors > 0 {
		fmt.Fprintf(info, "building IVF-PQ index: %d vectors, dim %d ...\n", *dbVectors, *dbDim)
		if *shards > 1 {
			fmt.Fprintf(info, "sharding: %d shards x %d replicas; calibrating recall@%d ...\n", *shards, *replicas, *k)
		}
		var ix *vectordb.IVFPQ
		ix, sharded, recallMod, err = syntheticIndex(*dbVectors, *dbDim, *shards, *replicas, *k, npList, foList, *tf.seed)
		if err != nil {
			log.Fatal(err)
		}
		if sharded != nil {
			opts.Sharded = sharded
			opts.SearchK = *k
		} else {
			kk, np := *k, *nprobe
			opts.Searcher = func(queries [][]float32) ([][]vectordb.Result, error) {
				return ix.SearchBatch(queries, kk, np)
			}
		}
		opts.QueryDim = *dbDim
		opts.QuerySeed = *tf.seed
	}

	// The optimizer runs after the substrate wiring so a sharded tier's
	// measured recall surface and merge costs price the frontier; the knob
	// lists make nprobe and shard-fanout schedule dimensions of the search,
	// the requested batch formation is a single-valued one, and the served
	// trace's shapes are its length sample, so every frontier point is
	// priced, and pruned, under the formation and traffic it serves.
	shapes, err := tf.searchShapes()
	if err != nil {
		log.Fatal(err)
	}
	coreOpts := core.DefaultOptions(cluster)
	coreOpts.NProbes = npList
	coreOpts.ShardFanouts = foList
	coreOpts.Policies = []engine.BatchPolicy{pol}
	coreOpts.ChunkQuanta = []int{*chunkPrefill}
	coreOpts.Shapes = shapes
	o, err := core.NewOptimizer(schema, coreOpts)
	if err != nil {
		log.Fatal(err)
	}
	if sharded != nil {
		o.Prof.Shards = sharded.Shards()
		o.Prof.RecallMod = recallMod
	}
	front := o.Optimize()
	if len(front) == 0 {
		log.Fatal("no feasible schedule under the given resources")
	}

	if *controller {
		runControlled(o, front, tf, opts, info, *jsonOut, control.SLO{TTFT: *sloTTFT, TPOT: *sloTPOT},
			control.Config{Window: *ctrlWindow, Interval: *ctrlTick, Headroom: *headroom, HoldDown: *holddown, MinRecall: *minRecall},
			flushTrace, perRequest)
		return
	}

	chosen, err := pickPoint(front, *point)
	if err != nil {
		log.Fatal(err)
	}
	reqs, desc, err := tf.build(1.5*chosen.Metrics.QPS, perRequest)
	if err != nil {
		log.Fatal(err)
	}

	if opts.Speedup <= 0 {
		opts.Speedup = autoSpeedup(reqs, chosen.Metrics.QPS)
	}

	// Serve the plan the optimizer priced: its profiler carries the
	// sharded tier's shard count and recall surface, and its metrics are
	// the searched ones, shapes included.
	plan, err := o.Compile(chosen.Item)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.NewServer(plan, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintf(info, "schedule: %s\n", chosen.Item.Describe(o.Pipe))
	fmt.Fprintf(info, "analytic: %s\n", chosen.Metrics)
	if cacheCfg.PrefixTokens > 0 {
		// Cache-aware analytic reference: replay the tagged trace through
		// a fresh cache instance to get the per-request prefix credits the
		// runtime's own cache will grant, then recost with them.
		credits, cst, cerr := cache.ReplayCredits(cacheCfg, reqs, schema.PrefixTokens)
		if cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Fprintf(info, "analytic (cache-aware): %s\n", plan.CachedMetrics(traceShapes(reqs), credits))
		fmt.Fprintf(info, "analytic replay %s\n", cst)
	}
	fmt.Fprintf(info, "trace:    %s\n", desc)
	fmt.Fprintf(info, "pacing:   speedup %.0fx\n\n", opts.Speedup)

	rep, err := srv.Serve(reqs)
	if err != nil {
		log.Fatal(err)
	}
	flushTrace()
	if *jsonOut {
		printJSON(&rep.Report)
		return
	}
	fmt.Print(&rep.Report)
}

// runControlled builds the SLO-filtered plan library from the frontier and
// lets the online controller drive the replay.
func runControlled(o *core.Optimizer, front []core.SchedulePoint, tf traceFlags,
	opts serve.Options, info *os.File, jsonOut bool, slo control.SLO, cfg control.Config,
	flushTrace func(), perRequest int) {
	lib, err := control.NewLibrary(o, front, slo)
	if err != nil {
		log.Fatal(err)
	}
	top := lib.Entries[len(lib.Entries)-1]
	reqs, desc, err := tf.build(0.5*top.QPS, perRequest)
	if err != nil {
		log.Fatal(err)
	}
	cfg.SLO = slo
	ctl, err := control.NewController(lib, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if opts.Speedup <= 0 {
		opts.Speedup = autoSpeedup(reqs, top.QPS)
	}

	fmt.Fprintf(info, "library:  %d SLO-feasible plans (TTFT<=%.2fs):\n", len(lib.Entries), slo.TTFT)
	for i, e := range lib.Entries {
		fmt.Fprintf(info, "  [%d] %6.1f QPS  %3d chips  %s\n", i, e.QPS, e.Chips, e.Schedule)
	}
	fmt.Fprintf(info, "trace:    %s\n", desc)
	fmt.Fprintf(info, "pacing:   speedup %.0fx\n\n", opts.Speedup)

	res, err := ctl.Run(opts, reqs)
	if err != nil {
		log.Fatal(err)
	}
	flushTrace()

	if jsonOut {
		printJSON(res)
		return
	}
	fmt.Print(res)
}

// traceShapes extracts the per-request shapes, or nil when the whole
// trace runs at the schema constants (no shape-weighted reference needed).
func traceShapes(reqs []trace.Request) []engine.Shape {
	shaped := false
	out := make([]engine.Shape, len(reqs))
	for i, r := range reqs {
		out[i] = engine.Shape{PromptTokens: r.PromptTokens, OutputTokens: r.OutputTokens}
		shaped = shaped || r.Shaped()
	}
	if !shaped {
		return nil
	}
	return out
}

// parseIntList parses a comma-separated knob list ("2,8,32") into ints;
// an empty spec is an empty list.
func parseIntList(name, spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("serve: bad %s entry %q", name, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// knobAxis maps searched knob values to the ascending, deduplicated axis
// of effective values a recall calibration grids over: non-positive (and,
// when max > 0, over-max) entries mean the default, which is always on
// the axis so the base configuration interpolates exactly.
func knobAxis(vals []int, def, max int) []int {
	set := map[int]bool{def: true}
	for _, v := range vals {
		if v <= 0 || (max > 0 && v > max) {
			v = def
		}
		set[v] = true
	}
	axis := make([]int, 0, len(set))
	for v := range set {
		axis = append(axis, v)
	}
	sort.Ints(axis)
	return axis
}

// syntheticIndex builds the synthetic clustered IVF-PQ index (n vectors of
// dimension dim around 64 clusters, 128 cells, dim/2 subquantizers) and,
// with shards > 1, shards it shards x replicas ways and measures the
// sharded tier's recall@k against exact ground truth (a flat index over the
// same vectors) at every effective (nprobe, fanout) the schedule search can
// visit, wrapped in the interpolating surface the analytic planner prices
// recall from. The query sample matches the serving path's synthesized
// query distribution. Unsharded, the tier and its surface are nil.
func syntheticIndex(n, dim, shards, replicas, k int, nprobes, fanouts []int, seed int64) (*vectordb.IVFPQ, *vectordb.Sharded, *retrieval.RecallModel, error) {
	data := vectordb.GenClustered(n, dim, 64, 0.4, seed)
	ix, err := vectordb.BuildIVFPQ(data, 128, dim/2, seed)
	if err != nil || shards <= 1 {
		return ix, nil, nil, err
	}
	sh, err := vectordb.NewSharded(ix, shards, replicas)
	if err != nil {
		return nil, nil, nil, err
	}
	flat := vectordb.NewFlat(dim)
	if err := flat.Add(data...); err != nil {
		return nil, nil, nil, err
	}
	// Decorrelate the calibration sample from the arrival stream (same
	// rationale as applyShapes' xor).
	rng := rand.New(rand.NewSource(seed ^ 0x726563))
	queries := make([][]float32, 64)
	for i := range queries {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32() * 10
		}
		queries[i] = v
	}
	npAxis := knobAxis(nprobes, retrieval.BaseNProbe, 0)
	foAxis := knobAxis(fanouts, shards, shards)
	grid, err := sh.CalibrateRecall(flat, queries, k, npAxis, foAxis)
	if err != nil {
		return nil, nil, nil, err
	}
	mod, err := retrieval.NewRecallModel(npAxis, foAxis, grid)
	if err != nil {
		return nil, nil, nil, err
	}
	return ix, sh, mod, nil
}

// autoSpeedup compresses the expected makespan into ~10s wall. The run
// lasts as long as the slower of serving capacity and arrivals.
func autoSpeedup(reqs []trace.Request, qps float64) float64 {
	makespan := float64(len(reqs)) / qps
	if span := reqs[len(reqs)-1].Arrival; span > makespan {
		makespan = span
	}
	sp := makespan / 10.0
	if sp < 1 {
		sp = 1
	}
	return sp
}

func printJSON(v interface{}) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// pickPoint resolves the -point flag against the frontier.
func pickPoint(front []core.SchedulePoint, sel string) (core.SchedulePoint, error) {
	switch sel {
	case "maxqps":
		p, ok := perf.MaxQPSPerChip(front)
		if !ok {
			return core.SchedulePoint{}, fmt.Errorf("serve: empty frontier")
		}
		return p, nil
	case "minttft":
		p, ok := perf.MinTTFT(front)
		if !ok {
			return core.SchedulePoint{}, fmt.Errorf("serve: empty frontier")
		}
		return p, nil
	default:
		i, err := strconv.Atoi(sel)
		if err != nil || i < 0 || i >= len(front) {
			return core.SchedulePoint{}, fmt.Errorf("serve: -point must be maxqps, minttft, or an index in [0, %d)", len(front))
		}
		return front[i], nil
	}
}
