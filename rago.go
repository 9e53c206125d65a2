// Package rago is a systematic performance optimizer for retrieval-
// augmented generation (RAG) serving, reproducing "RAGO: Systematic
// Performance Optimization for Retrieval-Augmented Generation Serving"
// (ISCA 2025).
//
// A RAG serving workload is described by a Schema (the paper's RAGSchema
// abstraction): which optional pipeline components exist — database
// encoder, query rewriter, reranker, iterative retrieval — and their
// configurations (model sizes, database size, queries per retrieval,
// retrieval frequency, sequence lengths). Given a Schema and a hardware
// Cluster, Optimize searches task placements, resource allocations, and
// batching policies, returning the Pareto frontier over time-to-first-
// token (TTFT), time-per-output-token (TPOT), and queries-per-second per
// chip, together with the schedule realizing each point.
//
// Quick start:
//
//	schema := rago.CaseII(70e9, 1_000_000) // long-context RAG, 70B LLM
//	front, err := rago.Optimize(schema, rago.DefaultOptions(rago.LargeCluster()))
//	if err != nil { ... }
//	best, _ := rago.MaxQPSPerChip(front)
//	fmt.Println(best.Metrics, best.Item)
//
// The performance models underneath (an operator-level XPU roofline
// simulator and a ScaNN-style vector-search cost model), the discrete-
// event validators, and a working IVF-PQ vector-search substrate live in
// the internal packages; this package is the stable surface.
package rago

import (
	"rago/internal/control"
	"rago/internal/core"
	"rago/internal/engine"
	"rago/internal/hw"
	"rago/internal/obs"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
	"rago/internal/serve"
	"rago/internal/sim"
	"rago/internal/stageperf"
	"rago/internal/trace"
	"rago/internal/vectordb"
)

// Workload abstraction (the paper's RAGSchema, §3.2).
type (
	// Schema describes one RAG serving workload.
	Schema = ragschema.Schema
)

// Preset workloads from Table 3 of the paper.
var (
	// Default is the §4 baseline workload shape for a generative model
	// size, with no optional components.
	Default = ragschema.Default
	// CaseI is hyperscale retrieval: 64B vectors, 1-8 query vectors.
	CaseI = ragschema.CaseI
	// CaseII is long-context processing: a 120M document encoder over a
	// real-time context, tiny brute-force database.
	CaseII = ragschema.CaseII
	// CaseIII is iterative retrieval: 2-8 retrievals per sequence.
	CaseIII = ragschema.CaseIII
	// CaseIV adds an 8B query rewriter and a 120M reranker.
	CaseIV = ragschema.CaseIV
	// CaseV is a multi-source fan-out beyond the paper: the corpus
	// sharded into N indexes queried in parallel, reranked together.
	// Its pipeline is a stage graph, not a linear chain.
	CaseV = ragschema.CaseV
	// LLMOnly is the no-retrieval comparison system of Fig. 5.
	LLMOnly = ragschema.LLMOnly
	// DecodeSchemaJSON parses and validates a Schema from JSON.
	DecodeSchemaJSON = ragschema.DecodeJSON
	// EncodeSchemaJSON renders a Schema as JSON.
	EncodeSchemaJSON = ragschema.EncodeJSON
)

// Hardware catalog (Table 2 of the paper).
type (
	// XPU is a systolic-array accelerator description.
	XPU = hw.XPU
	// CPUHost is a retrieval host server description.
	CPUHost = hw.CPUHost
	// Cluster is a resource pool of hosts and accelerators.
	Cluster = hw.Cluster
)

// Catalog entries and cluster presets.
var (
	// XPUA, XPUB, XPUC are the paper's three accelerator generations
	// (TPU v5e / v4 / v5p class).
	XPUA = hw.XPUA
	XPUB = hw.XPUB
	XPUC = hw.XPUC
	// EPYCHost is the paper's 96-core retrieval host.
	EPYCHost = hw.EPYCHost
	// DefaultCluster is 16 hosts x 4 XPU-C (the §5 environment).
	DefaultCluster = hw.DefaultCluster
	// LargeCluster is 32 hosts x 4 XPU-C (the §7 environment).
	LargeCluster = hw.LargeCluster
)

// Optimizer surface (the paper's RAGO, §6).
type (
	// Options bounds the schedule search.
	Options = core.Options
	// Optimizer runs the search for one workload.
	Optimizer = core.Optimizer
	// Schedule is one complete scheduling decision.
	Schedule = core.Schedule
	// GroupSchedule is the resolved policy for one XPU placement group.
	GroupSchedule = core.GroupSchedule
	// SchedulePoint couples a schedule with its metrics.
	SchedulePoint = core.SchedulePoint
	// Plan is one (placement, allocation) pair.
	Plan = core.Plan
	// Metrics carries TTFT, TPOT, QPS and QPS/chip.
	Metrics = perf.Metrics
	// Pipeline is the stage sequence derived from a Schema.
	Pipeline = pipeline.Pipeline
)

// DefaultOptions returns the search bounds used for all paper
// reproductions on the given cluster.
func DefaultOptions(cluster Cluster) Options { return core.DefaultOptions(cluster) }

// NewOptimizer builds an optimizer; use it when plan-level introspection
// (PlanFrontier, BurstTTFT, BaselineFrontier) is needed.
func NewOptimizer(schema Schema, opts Options) (*Optimizer, error) {
	return core.NewOptimizer(schema, opts)
}

// Optimize searches scheduling policies for schema and returns the Pareto
// frontier with its schedules, sorted by ascending TTFT.
func Optimize(schema Schema, opts Options) ([]SchedulePoint, error) {
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		return nil, err
	}
	return o.Optimize(), nil
}

// Baseline evaluates the paper's comparison system (§7.1): an LLM-only
// serving stack extended with the RAG components collocated into its
// prefix tier, chips split 1:1 between prefix and decode.
func Baseline(schema Schema, opts Options) ([]SchedulePoint, error) {
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		return nil, err
	}
	return o.BaselineFrontier(), nil
}

// MaxQPSPerChip returns the frontier point with the highest QPS/chip.
func MaxQPSPerChip(front []SchedulePoint) (SchedulePoint, bool) {
	return perf.MaxQPSPerChip(front)
}

// MinTTFT returns the frontier point with the lowest TTFT.
func MinTTFT(front []SchedulePoint) (SchedulePoint, bool) {
	return perf.MinTTFT(front)
}

// BuildPipeline derives the concrete stage graph (Fig. 3; linear for the
// paper's schemas, fan-out for multi-source ones) for a schema;
// Schedule.Describe renders against it.
func BuildPipeline(schema Schema) (Pipeline, error) { return pipeline.Build(schema) }

// ExecutionPlan is a schedule compiled against its pipeline: per-stage
// steps (resource, batch, replicas, profiled latency), per-resource
// occupancies, the iterative loop structure, and the assembled analytical
// metrics. One compiled plan drives the analytical assembler, the
// discrete-event validator, and the live serving runtime alike.
type ExecutionPlan = engine.Plan

// CompilePlan resolves a schedule into the shared execution plan on the
// given cluster's hardware — the exact object the serving runtime
// executes, with a descriptive error when any component is infeasible.
func CompilePlan(schema Schema, sched Schedule, cluster Cluster) (*ExecutionPlan, error) {
	pipe, err := pipeline.Build(schema)
	if err != nil {
		return nil, err
	}
	return engine.Compile(pipe, sched, stageperf.New(cluster.Chip, cluster.Host, schema))
}

// Discrete-event simulation (§5.3 dynamics and schedule validation).
type (
	// IterativeConfig parameterizes the decode-idleness simulation.
	IterativeConfig = sim.IterativeConfig
	// IterativeResult reports measured decode dynamics.
	IterativeResult = sim.IterativeResult
	// ServeSim executes a schedule on a request trace.
	ServeSim = sim.ServeSim
	// ServeResult reports measured serving behaviour.
	ServeResult = sim.ServeResult
	// Request is one trace entry; its PromptTokens/OutputTokens carry the
	// per-request sequence shape (0 = schema constant).
	Request = trace.Request
	// LengthDist is a per-request token-length distribution (constant,
	// lognormal, or empirical histogram), seed-deterministic and clamped.
	LengthDist = trace.LengthDist
	// LengthBucket is one bin of an empirical length histogram.
	LengthBucket = trace.LengthBucket
	// Shape is the padded sequence shape a batch is costed at; see
	// ExecutionPlan.ShapeMetrics for the shape-weighted analytical
	// reference of a heterogeneous trace.
	Shape = engine.Shape
)

// Simulation entry points and trace generators. The non-stationary
// processes (diurnal sinusoid, Markov-modulated bursts, heavy-tailed
// Gamma inter-arrivals) model production RAG traffic for the online
// controller; all are deterministic by seed. Traces persist to JSON or
// CSV files (SaveTrace/LoadTrace, extension-dispatched).
var (
	// RunIterative executes the §5.3 token-level decode simulation.
	RunIterative = sim.RunIterative
	// PoissonTrace generates open-loop arrivals.
	PoissonTrace = trace.Poisson
	// BurstTrace generates a simultaneous burst (§7.2).
	BurstTrace = trace.Burst
	// DiurnalTrace generates a sinusoid-modulated Poisson process.
	DiurnalTrace = trace.Diurnal
	// MMPPTrace generates Markov-modulated (bursty on/off) arrivals.
	MMPPTrace = trace.MMPP
	// GammaTrace generates Gamma inter-arrival (heavy-tailed) arrivals.
	GammaTrace = trace.Gamma
	// SaveTrace and LoadTrace persist traces as .json or .csv files.
	SaveTrace = trace.Save
	LoadTrace = trace.Load
	// WithTriggers decorates a trace with per-request iterative-retrieval
	// positions (§5.3), so the live runtime and the simulators park every
	// sequence at identical tokens.
	WithTriggers = trace.WithTriggers
	// WithShapes decorates a trace with per-request prompt/output lengths
	// drawn from LengthDists — the heavy-tailed request shapes real RAG
	// traffic shows; both executors cost batches at the padded member
	// maximum and free decode slots at each request's own length.
	WithShapes = trace.WithShapes
	// ConstantLengths, LognormalLengths, and EmpiricalLengths construct
	// validated length distributions (degenerate parameters — 0-token
	// outputs, clamps below a token — are rejected descriptively).
	ConstantLengths  = trace.ConstantLengths
	LognormalLengths = trace.LognormalLengths
	EmpiricalLengths = trace.EmpiricalLengths
)

// Serving runtime (the simulator's loop and core driven on the wall clock
// under open-loop load: stage batching, continuous-batching decode slots with
// the §5.3 decode loop, admission control and online p50/p95/p99 metrics).
type (
	// Runtime is a live serving engine for one schedule. Single-use:
	// build, Serve one trace, read the Report.
	Runtime = serve.Runtime
	// ServeOptions configures pacing (time compression), batching flush,
	// admission control, and the optional real retrieval substrate.
	ServeOptions = serve.Options
	// ServeReport is the measured latency/throughput report of a replay;
	// on heterogeneous traces it carries per-shape-bucket quantiles
	// (Shapes) and the pad-to-max padding-waste fraction (PadWaste).
	ServeReport = serve.Report
	// ShapeBucketStat is one shape bucket's TTFT/TPOT quantiles.
	ShapeBucketStat = serve.ShapeStat
	// SearchFunc plugs a real vector index (e.g. IVFPQ.SearchBatch) into
	// the runtime's retrieval tier.
	SearchFunc = serve.SearchFunc
)

// NewRuntime builds a serving engine executing sched — typically the Item
// of a frontier point returned by Optimize — for schema on the given
// cluster's hardware generation.
func NewRuntime(schema Schema, sched Schedule, cluster Cluster, opts ServeOptions) (*Runtime, error) {
	pipe, err := pipeline.Build(schema)
	if err != nil {
		return nil, err
	}
	return serve.New(pipe, stageperf.New(cluster.Chip, cluster.Host, schema), sched, opts)
}

// Online control plane (an SLO-aware controller over the serving
// runtime: windowed telemetry, a plan library from the Pareto frontier,
// and live plan switching with drain-and-migrate semantics).
type (
	// TelemetryWindow is a sliding-window snapshot of live serving
	// metrics (arrival rate, windowed p99 TTFT/TPOT, queue depths),
	// pollable mid-replay via Runtime.Telemetry or Server.Telemetry.
	TelemetryWindow = serve.Window
	// Server is a live serving engine that hot-swaps between compiled
	// plans of one pipeline (Switch drains in-flight requests on the
	// old plan while new admissions route to the new one).
	Server = serve.Server
	// ServerReport extends ServeReport with the plan-switching history
	// and chip-second accounting.
	ServerReport = serve.ServerReport
	// SLO is the latency objective the controller enforces.
	SLO = control.SLO
	// PlanLibrary is the controller's menu of SLO-feasible compiled
	// plans, ordered by sustainable QPS and chip cost.
	PlanLibrary = control.Library
	// Controller keeps a Server inside its SLO under time-varying load
	// at minimum chip cost.
	Controller = control.Controller
	// ControlConfig tunes the control loop (window, interval, headroom,
	// hold-down).
	ControlConfig = control.Config
	// ControlResult is a controlled replay's outcome: report, switch
	// events, and chip-seconds versus static peak provisioning.
	ControlResult = control.Result
	// SimReplayResult is the discrete-event replay of a switching
	// history, the reference the live run is validated against.
	SimReplayResult = control.SimResult
)

// NewServer builds a multi-plan serving engine starting on the given
// compiled plan (see CompilePlan).
func NewServer(initial *ExecutionPlan, opts ServeOptions) (*Server, error) {
	return serve.NewServer(initial, opts)
}

// NewPlanLibrary compiles the SLO-feasible subset of a Pareto frontier
// into the controller's plan menu.
func NewPlanLibrary(o *Optimizer, front []SchedulePoint, slo SLO) (*PlanLibrary, error) {
	return control.NewLibrary(o, front, slo)
}

// NewController builds the SLO-aware online controller over a plan
// library; Run replays a trace through a fresh Server, switching plans to
// hold the SLO at minimum chip cost.
func NewController(lib *PlanLibrary, cfg ControlConfig) (*Controller, error) {
	return control.NewController(lib, cfg)
}

// ReplaySwitches re-executes a controlled run's switching decisions in
// the discrete-event validator, through the live Server's own loop; with
// the live run's flushTimeout and maxInFlight bound (0 admits everything)
// it equals the live run exactly, its QPS bit for bit. flushTimeout is the
// effective timeout, used as given: 0 dispatches partial batches at once,
// where ServeOptions.FlushTimeout 0 means 0.05 s live.
func ReplaySwitches(lib *PlanLibrary, res *ControlResult, reqs []Request, flushTimeout float64, maxInFlight int) (SimReplayResult, error) {
	return control.SimReplay(lib, res, reqs, flushTimeout, maxInFlight)
}

// Observability: the typed event bus the executors publish onto, the
// span tracer that assembles per-request timelines (exportable as
// Perfetto-loadable Chrome trace JSON), and the streaming metrics
// endpoint (/window, /stream SSE, expvar, pprof).
type (
	// Bus is the bounded fan-out event bus (nil = zero-cost no-op).
	Bus = obs.Bus
	// ObsEvent is one typed observability event.
	ObsEvent = obs.Event
	// Tracer assembles per-request spans from the event stream.
	Tracer = obs.Tracer
	// RequestTrace is one request's assembled span timeline.
	RequestTrace = obs.RequestTrace
	// MetricsServer is the streaming metrics HTTP endpoint.
	MetricsServer = obs.MetricsServer
)

// Observability constructors.
var (
	// NewBus builds an event bus for ServeOptions.Bus / ServeSim.Bus.
	NewBus = obs.NewBus
	// NewTracer builds an empty span tracer (attach it to a Bus).
	NewTracer = obs.NewTracer
	// NewMetricsServer serves streaming metrics from a Bus on an address.
	NewMetricsServer = obs.NewMetricsServer
)

// Vector search substrate (a working IVF-PQ implementation of the
// retrieval tier the paper models analytically).
type (
	// VectorResult is one nearest-neighbor candidate.
	VectorResult = vectordb.Result
	// FlatIndex is exact brute-force kNN.
	FlatIndex = vectordb.FlatIndex
	// IVFPQ is an inverted-file index with product-quantized codes.
	IVFPQ = vectordb.IVFPQ
	// PQ is a product quantizer.
	PQ = vectordb.PQ
)

// Vector search constructors and helpers.
var (
	// NewFlatIndex returns an exact index.
	NewFlatIndex = vectordb.NewFlat
	// BuildIVFPQ trains and populates an IVF-PQ index.
	BuildIVFPQ = vectordb.BuildIVFPQ
	// TrainPQ learns a product quantizer.
	TrainPQ = vectordb.TrainPQ
	// Recall computes recall@k of approximate against exact results.
	Recall = vectordb.Recall
	// GenClustered synthesizes clustered vectors for experiments.
	GenClustered = vectordb.GenClustered
	// GenUniform synthesizes uniform vectors.
	GenUniform = vectordb.GenUniform
)
