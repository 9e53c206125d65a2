package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"rago/internal/cache"
	"rago/internal/engine"
	"rago/internal/perf"
	"rago/internal/roofline"
)

// collector holds what a live run measures beyond its engine.Tally: the
// per-completion samples behind quantiles, shape buckets and windows, and
// the real-search stats. The driver records into both under one mutex, so
// Telemetry can read them mid-replay.
type collector struct {
	mu    sync.Mutex
	tally *engine.Tally
	led   *engine.Ledger // the run's trace, for arrival times and shapes
	names []string       // stage slot names

	// One sample per completion, in completion order, parallel to the
	// tally's completion times: the latencies, the iterative decode-loop
	// parked seconds, and the trace index, whose shape buckets latency
	// quantiles after the fact and inside windows. Each column is sized at
	// the trace length when the run starts, so recording never grows one.
	ttft, tpot, latency, stall []float64
	req                        []int32

	sorted []float64 // the scratch quantiles sort into

	searches      int
	searchWall    []float64 // search seconds per real retrieval batch
	searchQueries int
	// Sharded scatter-gather degradation: replica picks that skipped a
	// down replica, and consulted shards dropped from a merge outright.
	shardFellBack int
	shardLost     int
}

// searched records one real retrieval batch: its queries, search seconds
// and scatter-gather degradation.
func (c *collector) searched(queries int, wall float64, fellBack, lost int) {
	c.mu.Lock()
	c.searches++
	c.searchQueries += queries
	c.searchWall = append(c.searchWall, wall)
	c.shardFellBack += fellBack
	c.shardLost += lost
	c.mu.Unlock()
}

// Quantiles summarizes one latency distribution (seconds).
type Quantiles struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// start sizes the collector for a run of n requests over ledger led under
// plan p's stage graph.
func (c *collector) start(p *engine.Plan, led *engine.Ledger, n int) {
	c.tally, c.led, c.names = engine.NewTally(p, n), led, p.SlotNames()
	c.ttft, c.tpot = make([]float64, 0, n), make([]float64, 0, n)
	c.latency, c.stall = make([]float64, 0, n), make([]float64, 0, n)
	c.req = make([]int32, 0, n)
}

// completed records request r's completion d. Caller holds the lock.
func (c *collector) completed(r int, d engine.Completion) {
	c.ttft = append(c.ttft, d.TTFT)
	c.tpot = append(c.tpot, d.TPOT)
	c.latency = append(c.latency, d.Latency)
	c.stall = append(c.stall, d.Stall)
	c.req = append(c.req, int32(r))
}

// quantiles summarizes xs, sorting a copy in the collector's scratch.
// Caller holds the lock.
func (c *collector) quantiles(xs []float64) Quantiles {
	c.sorted = append(c.sorted[:0], xs...)
	return quantilesOf(c.sorted)
}

// quantilesOf summarizes s, which it sorts in place.
func quantilesOf(s []float64) Quantiles {
	if len(s) == 0 {
		return Quantiles{}
	}
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Quantiles{
		Mean: sum / float64(len(s)),
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Max:  s[len(s)-1],
	}
}

func (q Quantiles) String() string {
	return fmt.Sprintf("p50 %.4fs  p95 %.4fs  p99 %.4fs  mean %.4fs  max %.4fs",
		q.P50, q.P95, q.P99, q.Mean, q.Max)
}

// QueueStat reports one stage's batching behaviour over the run.
type QueueStat struct {
	// Stage is the pipeline stage name.
	Stage string `json:"stage"`
	// PeakDepth is the deepest its queue got.
	PeakDepth int `json:"peak_depth"`
	// Batches is how many batches were dispatched.
	Batches int `json:"batches"`
	// MeanFill is the mean formed-batch size over the configured size.
	MeanFill float64 `json:"mean_fill"`
	// PadWaste is the stage's padding-waste fraction: tokens spent
	// padding shaped batches to their per-batch maximum over all padded
	// tokens (0 where no shape-aware costing applied).
	PadWaste float64 `json:"pad_waste,omitempty"`
}

// ShapeStat reports latency quantiles for one shape bucket of completed
// requests. Buckets are power-of-two ceilings of the per-request prompt
// and output lengths ("p<=512 o<=256"); requests running at the schema
// constants land in the "schema" bucket, so a constant-shape replay has
// exactly one bucket.
type ShapeStat struct {
	// Bucket labels the shape class.
	Bucket string `json:"bucket"`
	// Count is how many completions fell in the bucket.
	Count int `json:"count"`
	// MeanPromptTokens and MeanOutputTokens are the bucket's observed
	// mean lengths (0 for the "schema" bucket — schema constants), the
	// representative shape an online re-weighting of a plan library's
	// capacity staircase prices the bucket at.
	MeanPromptTokens int `json:"mean_prompt_tokens,omitempty"`
	MeanOutputTokens int `json:"mean_output_tokens,omitempty"`
	// TTFT and TPOT are quantiles over the bucket's completions.
	TTFT Quantiles `json:"ttft"`
	TPOT Quantiles `json:"tpot"`
}

// shapeBucketOf maps a completion's shape to its bucket label and a sort
// key (prompt-major). Unshaped requests bucket as "schema".
func shapeBucketOf(promptTok, outTok int) (string, uint64) {
	if promptTok == 0 && outTok == 0 {
		return "schema", 0
	}
	p, o := roofline.Pow2Up(promptTok), roofline.Pow2Up(outTok)
	part := func(prefix string, raw, ceil int) string {
		if raw == 0 {
			return prefix + "=schema"
		}
		return fmt.Sprintf("%s<=%d", prefix, ceil)
	}
	return part("p", promptTok, p) + " " + part("o", outTok, o), uint64(p)<<32 | uint64(o)
}

// shapeStats buckets the completions [from, to) into ShapeStats sorted by
// ascending shape, or returns nil when every one ran at the schema
// constants: a constant-shape replay would collapse into one "schema" row
// that just repeats the global quantiles. Caller holds the lock.
func (c *collector) shapeStats(from, to int) []ShapeStat {
	shaped := false
	for _, r := range c.req[from:to] {
		if q := c.led.Trace(int(r)); q.PromptTokens != 0 || q.OutputTokens != 0 {
			shaped = true
			break
		}
	}
	if !shaped {
		return nil
	}
	type agg struct {
		label      string
		key        uint64
		ttft, tpot []float64
		sumP, sumO int
	}
	byBucket := map[string]*agg{}
	for i := from; i < to; i++ {
		q := c.led.Trace(int(c.req[i]))
		label, key := shapeBucketOf(q.PromptTokens, q.OutputTokens)
		a := byBucket[label]
		if a == nil {
			a = &agg{label: label, key: key}
			byBucket[label] = a
		}
		a.ttft = append(a.ttft, c.ttft[i])
		a.tpot = append(a.tpot, c.tpot[i])
		a.sumP += q.PromptTokens
		a.sumO += q.OutputTokens
	}
	aggs := make([]*agg, 0, len(byBucket))
	for _, a := range byBucket {
		aggs = append(aggs, a)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].key != aggs[j].key {
			return aggs[i].key < aggs[j].key
		}
		return aggs[i].label < aggs[j].label
	})
	out := make([]ShapeStat, len(aggs))
	for i, a := range aggs {
		out[i] = ShapeStat{
			Bucket:           a.label,
			Count:            len(a.ttft),
			MeanPromptTokens: a.sumP / len(a.ttft),
			MeanOutputTokens: a.sumO / len(a.ttft),
			TTFT:             quantilesOf(a.ttft),
			TPOT:             quantilesOf(a.tpot),
		}
	}
	return out
}

// Report is the measured behaviour of one trace replay. All latencies are
// virtual (schedule) seconds. It marshals cleanly to JSON for CI
// artifacts and offline analysis.
type Report struct {
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`

	// TTFT is arrival to prefix completion; TPOT the per-output-token
	// decode time; Latency arrival to full generation.
	TTFT    Quantiles `json:"ttft"`
	TPOT    Quantiles `json:"tpot"`
	Latency Quantiles `json:"latency"`
	// Stall is the per-request seconds sequences spent parked in the
	// §5.3 decode loop (batch-formation wait plus round service);
	// all-zero on single-retrieval workloads.
	Stall Quantiles `json:"stall"`

	// Shapes breaks TTFT/TPOT down by per-request shape bucket
	// (power-of-two prompt/output ceilings; constant-shape replays
	// collapse into the single "schema" bucket).
	Shapes []ShapeStat `json:"shapes,omitempty"`
	// PadWaste is the fraction of prefix-batch tokens spent padding
	// heterogeneous prompts to their batch maximum (0 when no shaped
	// batch was served).
	PadWaste float64 `json:"pad_waste,omitempty"`
	// BatchPolicy names the prefix batch-formation policy the run served
	// under ("" on multi-plan runs, where epochs may differ); ChunkQuantum
	// is the chunked-prefill quantum in tokens (0 = whole-prompt).
	BatchPolicy  string `json:"batch_policy,omitempty"`
	ChunkQuantum int    `json:"chunk_quantum,omitempty"`
	// MeanChunkDepth is the mean chunks per chunked prefix batch (0 when
	// chunked prefill was off).
	MeanChunkDepth float64 `json:"mean_chunk_depth,omitempty"`

	// SustainedQPS is completions over the completion span — the
	// saturation throughput when the trace overdrives the schedule.
	SustainedQPS float64 `json:"sustained_qps"`
	// SteadyQPS is the peak windowed completion rate (Tally.SteadyRate),
	// which warmup ramp and drain tail do not dilute.
	SteadyQPS float64 `json:"steady_qps,omitempty"`
	// Span is the virtual completion span the rate is measured over.
	Span float64 `json:"span"`

	// Analytic carries the compiled plan's prediction for the same schedule,
	// zero-valued unless HasAnalytic (a multi-plan run has no single
	// reference); QPSVsAnalytic is SustainedQPS over Analytic.QPS.
	Analytic      perf.Metrics `json:"analytic"`
	HasAnalytic   bool         `json:"has_analytic"`
	QPSVsAnalytic float64      `json:"qps_vs_analytic,omitempty"`

	// Cache is the reuse cache's final counters (prefix hit rate, saved
	// prefill tokens, evictions, answer-tier hits); nil when no cache was
	// configured.
	Cache *cache.Stats `json:"cache,omitempty"`

	// Queues reports per-stage batching and backlog, decode included.
	Queues []QueueStat `json:"queues,omitempty"`

	// Real-retrieval substrate stats (zero unless a Searcher or Sharded
	// index was set). SearchWall is each batch's search time: the Searcher
	// call's wall time, or its queries' Sharded searches summed.
	// ShardFallbacks counts replica picks that skipped a down replica;
	// ShardLost counts consulted shards a scatter-gather had to merge
	// without (every replica down — graceful degradation).
	Searches       int       `json:"searches,omitempty"`
	SearchQueries  int       `json:"search_queries,omitempty"`
	SearchWall     Quantiles `json:"search_wall"`
	ShardFallbacks int       `json:"shard_fallbacks,omitempty"`
	ShardLost      int       `json:"shard_lost,omitempty"`

	// Speedup and WallSeconds record the time compression of the run.
	Speedup     float64 `json:"speedup"`
	WallSeconds float64 `json:"wall_seconds"`
}

// report snapshots the collector and its tally into a Report once the
// driver has returned, so no concurrent mutation remains.
func (c *collector) report(analytic perf.Metrics, hasAnalytic bool, speedup, wall float64) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := c.tally.Summary()
	rep := &Report{
		Admitted:       sum.Admitted,
		Rejected:       sum.Rejected,
		Completed:      sum.Completed,
		TTFT:           c.quantiles(c.ttft),
		TPOT:           c.quantiles(c.tpot),
		Latency:        c.quantiles(c.latency),
		Stall:          c.quantiles(c.stall),
		PadWaste:       sum.PadWaste,
		MeanChunkDepth: sum.MeanChunks,
		SustainedQPS:   sum.QPS,
		SteadyQPS:      sum.SteadyQPS,
		Analytic:       analytic,
		HasAnalytic:    hasAnalytic,
		Searches:       c.searches,
		SearchQueries:  c.searchQueries,
		SearchWall:     c.quantiles(c.searchWall),
		ShardFallbacks: c.shardFellBack,
		ShardLost:      c.shardLost,
		Speedup:        speedup,
		WallSeconds:    wall,
		Shapes:         c.shapeStats(0, len(c.req)),
	}
	if rep.SustainedQPS > 0 {
		rep.Span = sum.LastDone - sum.FirstDone
	}
	if rep.HasAnalytic && analytic.QPS > 0 {
		rep.QPSVsAnalytic = rep.SustainedQPS / analytic.QPS
	}
	for i, sl := range c.tally.Slots {
		if sl.Batches == 0 && sl.Peak == 0 {
			continue
		}
		rep.Queues = append(rep.Queues, QueueStat{Stage: c.names[i], PeakDepth: sl.Peak,
			Batches: sl.Batches, MeanFill: sl.Fill(), PadWaste: sl.PadWaste()})
	}
	return rep
}

// String renders the latency report the `rago serve` subcommand prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed %d/%d requests (%d rejected) in %.1fs virtual / %.1fs wall (speedup %.0fx)\n",
		r.Completed, r.Admitted+r.Rejected, r.Rejected, r.Span, r.WallSeconds, r.Speedup)
	fmt.Fprintf(&b, "sustained QPS %.2f", r.SustainedQPS)
	if r.SteadyQPS > 0 {
		fmt.Fprintf(&b, "  steady %.2f", r.SteadyQPS)
	}
	if r.HasAnalytic {
		fmt.Fprintf(&b, "  (analytical %.2f, ratio %.2f)", r.Analytic.QPS, r.QPSVsAnalytic)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "TTFT     %s\n", r.TTFT)
	fmt.Fprintf(&b, "TPOT     %s\n", r.TPOT)
	fmt.Fprintf(&b, "latency  %s\n", r.Latency)
	if r.Stall.Max > 0 {
		fmt.Fprintf(&b, "stall    %s\n", r.Stall)
	}
	for _, s := range r.Shapes {
		fmt.Fprintf(&b, "shape %-18s n %6d  TTFT p99 %.4fs  TPOT p99 %.5fs\n", s.Bucket, s.Count, s.TTFT.P99, s.TPOT.P99)
	}
	if r.PadWaste > 0 {
		fmt.Fprintf(&b, "padding waste %.1f%% of prefix-batch tokens (pad-to-max over mixed shapes)\n", 100*r.PadWaste)
	}
	if r.BatchPolicy != "" && r.BatchPolicy != "fifo" {
		fmt.Fprintf(&b, "batch formation: %s\n", r.BatchPolicy)
	}
	if r.ChunkQuantum > 0 {
		fmt.Fprintf(&b, "chunked prefill: quantum %d tokens, mean %.1f chunks/batch\n", r.ChunkQuantum, r.MeanChunkDepth)
	}
	if r.Cache != nil {
		fmt.Fprintf(&b, "%s\n", r.Cache)
	}
	for _, q := range r.Queues {
		switch {
		case q.Batches > 0 && q.PadWaste > 0:
			fmt.Fprintf(&b, "queue %-15s peak %5d  batches %6d  fill %.2f  pad-waste %.2f\n", q.Stage, q.PeakDepth, q.Batches, q.MeanFill, q.PadWaste)
		case q.Batches > 0:
			fmt.Fprintf(&b, "queue %-15s peak %5d  batches %6d  fill %.2f\n", q.Stage, q.PeakDepth, q.Batches, q.MeanFill)
		default:
			fmt.Fprintf(&b, "queue %-15s peak %5d\n", q.Stage, q.PeakDepth)
		}
	}
	if r.Searches > 0 {
		fmt.Fprintf(&b, "retrieval substrate: %d real batches (%d queries), wall %s\n",
			r.Searches, r.SearchQueries, r.SearchWall)
	}
	return b.String()
}
