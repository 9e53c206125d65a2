package bench

import (
	"fmt"
	"sort"

	"rago/internal/core"
	"rago/internal/hw"
	"rago/internal/perf"
	"rago/internal/pipeline"
	"rago/internal/ragschema"
)

// EvalCase identifies the §7 evaluation workloads.
type EvalCase int

// The two case studies §7 evaluates placement/allocation on (C-I appears
// only in the micro-batching study).
const (
	EvalCaseII EvalCase = iota
	EvalCaseIV
)

func (c EvalCase) schema() ragschema.Schema {
	if c == EvalCaseII {
		return ragschema.CaseII(70e9, 1_000_000)
	}
	return ragschema.CaseIV(70e9)
}

func (c EvalCase) String() string {
	if c == EvalCaseII {
		return "Case II (long-context 1M, 70B)"
	}
	return "Case IV (rewriter+reranker, 70B)"
}

// Figure15 reproduces Fig. 15: the RAGO Pareto frontier against the
// LLM-system-extension baseline, returning both curves and the max-QPS/chip
// gain (paper: 1.7x for C-II, 1.5x for C-IV).
func Figure15(c EvalCase) (rago, baseline Series, gain float64, err error) {
	o, front, err := optimize(c.schema(), pool128(), 0)
	if err != nil {
		return Series{}, Series{}, 0, err
	}
	base := o.BaselineFrontier()
	ragoBest, err := maxQPSPerChip(front)
	if err != nil {
		return Series{}, Series{}, 0, err
	}
	baseBest, err := maxQPSPerChip(base)
	if err != nil {
		return Series{}, Series{}, 0, err
	}
	return frontierSeries("RAGO", front), frontierSeries("baseline", base),
		ragoBest.Metrics.QPSPerChip / baseBest.Metrics.QPSPerChip, nil
}

// PlanSummary is one placement+allocation plan's frontier extremes, the
// unit Fig. 16 plots and Fig. 18 aggregates.
type PlanSummary struct {
	Plan       core.Plan
	Desc       string
	MaxQPSChip float64
	MinTTFT    float64
	Points     int
}

// Figure16 reproduces Fig. 16: per-(placement, allocation) Pareto
// frontiers whose upper envelope is the global frontier. It returns plan
// summaries sorted by max QPS/chip (best first) plus the global frontier.
func Figure16(c EvalCase, topN int) ([]PlanSummary, Series, error) {
	opts := core.DefaultOptions(pool128())
	o, err := core.NewOptimizer(c.schema(), opts)
	if err != nil {
		return nil, Series{}, err
	}
	var sums []PlanSummary
	var all []core.SchedulePoint
	for _, plan := range o.Plans() {
		front := o.PlanFrontier(plan)
		if len(front) == 0 {
			continue
		}
		bestQ, _ := perf.MaxQPSPerChip(front)
		bestT, _ := perf.MinTTFT(front)
		sums = append(sums, PlanSummary{
			Plan:       plan,
			Desc:       plan.Describe(o.Pipe),
			MaxQPSChip: bestQ.Metrics.QPSPerChip,
			MinTTFT:    bestT.Metrics.TTFT,
			Points:     len(front),
		})
		all = append(all, front...)
	}
	sort.SliceStable(sums, func(i, j int) bool { return sums[i].MaxQPSChip > sums[j].MaxQPSChip })
	if topN > 0 && len(sums) > topN {
		sums = sums[:topN]
	}
	global := perf.Frontier(all)
	return sums, frontierSeries("global Pareto", global), nil
}

// PlacementClass buckets plans by their placement style for Fig. 17.
type PlacementClass int

// Placement styles compared in Fig. 17.
const (
	PlacementCollocated PlacementClass = iota
	PlacementDisaggregated
	PlacementHybrid
)

func (p PlacementClass) String() string {
	switch p {
	case PlacementCollocated:
		return "collocated"
	case PlacementDisaggregated:
		return "disaggregated"
	default:
		return "hybrid"
	}
}

// classify assigns a placement to its Fig. 17 bucket: fully singleton
// groups are disaggregated, a single all-stage group is collocated, and
// anything else is hybrid.
func classify(pl pipeline.Placement, stages int) PlacementClass {
	if len(pl.Groups) == stages {
		return PlacementDisaggregated
	}
	if len(pl.Groups) == 1 {
		return PlacementCollocated
	}
	return PlacementHybrid
}

// Figure17 reproduces Fig. 17: per-placement-class Pareto frontiers. For
// Case II the collocated variant places the encoder with the prefix on one
// pool (crossing the trivial document-retrieval stage, as the paper's
// comparison does); sensitivity there should be minimal, while Case IV
// shows up to 1.5x spread (paper).
func Figure17(c EvalCase) (map[PlacementClass]Series, error) {
	schema := c.schema()
	opts := core.DefaultOptions(pool128())
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		return nil, err
	}
	nStages := len(o.Pipe.PreDecodeXPUStages())
	placements := o.Pipe.Placements()
	// Add the fully collocated (cross-retrieval) variant, which the
	// Fig. 13 rule excludes from RAGO's own search but Fig. 17 compares.
	placements = append(placements, o.Pipe.BaselinePlacement())

	groups := map[PlacementClass][]core.SchedulePoint{}
	for _, pl := range placements {
		sub := opts
		sub.Placements = []pipeline.Placement{pl}
		so, err := o.With(sub)
		if err != nil {
			return nil, err
		}
		cls := classify(pl, nStages)
		groups[cls] = append(groups[cls], so.Optimize()...)
	}
	out := map[PlacementClass]Series{}
	for cls, pts := range groups {
		front := perf.Frontier(pts)
		out[cls] = frontierSeries(cls.String(), front)
	}
	return out, nil
}

// Figure18 reproduces Fig. 18: resource-allocation sensitivity. For one
// placement style it returns the spread between the best and worst
// full-budget allocation's max QPS/chip (paper: 52.5x collocated, 64.1x
// disaggregated for Case II). The collocated style puts every pre-decode
// stage on one pool (the comparison placement of §7.2, crossing Case II's
// trivial document-retrieval stage).
func Figure18(c EvalCase, collocated bool) (spread float64, best, worst PlanSummary, err error) {
	schema := c.schema()
	opts := core.DefaultOptions(pool128())
	probe, err := core.NewOptimizer(schema, opts)
	if err != nil {
		return 0, PlanSummary{}, PlanSummary{}, err
	}
	if collocated {
		opts.Placements = []pipeline.Placement{probe.Pipe.BaselinePlacement()}
	} else {
		opts.Placements = []pipeline.Placement{probe.Pipe.FullyDisaggregated()}
	}
	o, err := probe.With(opts)
	if err != nil {
		return 0, PlanSummary{}, PlanSummary{}, err
	}
	found := false
	for _, plan := range o.Plans() {
		// Fig. 18 compares deployed allocations: imbalance, not gross
		// under-allocation, should drive the spread.
		used := plan.DecodeChips
		for _, g := range plan.GroupChips {
			used += g
		}
		if used < pool128().XPUs()/2 {
			continue
		}
		front := o.PlanFrontier(plan)
		if len(front) == 0 {
			continue
		}
		bq, _ := perf.MaxQPSPerChip(front)
		sum := PlanSummary{Plan: plan, Desc: plan.Describe(o.Pipe), MaxQPSChip: bq.Metrics.QPSPerChip, Points: len(front)}
		if !found {
			best, worst, found = sum, sum, true
			continue
		}
		if sum.MaxQPSChip > best.MaxQPSChip {
			best = sum
		}
		if sum.MaxQPSChip < worst.MaxQPSChip {
			worst = sum
		}
	}
	if !found {
		return 0, PlanSummary{}, PlanSummary{}, fmt.Errorf("bench: no feasible allocation")
	}
	return best.MaxQPSChip / worst.MaxQPSChip, best, worst, nil
}

// Figure19 reproduces Fig. 19: TTFT reduction from micro-batching a burst
// of requests, as a heatmap over a per-case parameter and the burst size.
func Figure19CaseI() ([]Cell, error) {
	var out []Cell
	for _, q := range []int{1, 2, 4, 8} {
		schema := ragschema.CaseI(70e9, q)
		for _, burst := range []int{2, 4, 8, 16, 32} {
			red, err := microBatchReduction(schema, pool64(), burst)
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{Row: fmt.Sprintf("queries=%d", q), Col: fmt.Sprintf("burst=%d", burst), Value: red})
		}
	}
	return out, nil
}

// Figure19CaseII sweeps context lengths.
func Figure19CaseII() ([]Cell, error) {
	var out []Cell
	for _, ctx := range []int{100_000, 1_000_000, 10_000_000} {
		schema := ragschema.CaseII(70e9, ctx)
		for _, burst := range []int{2, 4, 8, 16, 32} {
			red, err := microBatchReduction(schema, pool64(), burst)
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{Row: "ctx=" + ctxName(ctx), Col: fmt.Sprintf("burst=%d", burst), Value: red})
		}
	}
	return out, nil
}

// Figure19CaseIV sweeps generative model sizes.
func Figure19CaseIV() ([]Cell, error) {
	var out []Cell
	for _, params := range []float64{8e9, 70e9} {
		schema := ragschema.CaseIV(params)
		for _, burst := range []int{2, 4, 8, 16, 32} {
			red, err := microBatchReduction(schema, pool64(), burst)
			if err != nil {
				return nil, err
			}
			out = append(out, Cell{Row: sizeName(params), Col: fmt.Sprintf("burst=%d", burst), Value: red})
		}
	}
	return out, nil
}

// microBatchReduction computes the TTFT reduction of splitting a burst
// into micro-batches of every power of two below it, keeping the best —
// the paper reports the best micro-batch size per cell.
func microBatchReduction(schema ragschema.Schema, cluster hw.Cluster, burst int) (float64, error) {
	opts := core.DefaultOptions(cluster)
	opts.NormalizeChips = cluster.XPUs()
	o, err := core.NewOptimizer(schema, opts)
	if err != nil {
		return 0, err
	}
	plan, err := balancedPlan(o)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for m := 1; m < burst; m <<= 1 {
		red, err := o.BurstTTFTReduction(plan, burst, m)
		if err != nil {
			continue
		}
		if red > best {
			best = red
		}
	}
	return best, nil
}

// balancedPlan derives the plan of the max-QPS/chip schedule — the
// deployment whose burst behaviour Fig. 19 studies.
func balancedPlan(o *core.Optimizer) (core.Plan, error) {
	best, err := maxQPSPerChip(o.Optimize())
	if err != nil {
		return core.Plan{}, err
	}
	s := best.Item
	plan := core.Plan{
		Placement:   pipeline.Placement{},
		DecodeChips: s.DecodeChips,
		Servers:     s.RetrievalServers,
	}
	for _, g := range s.Groups {
		plan.Placement.Groups = append(plan.Placement.Groups, pipeline.Group{Stages: g.Stages})
		plan.GroupChips = append(plan.GroupChips, g.Chips)
	}
	return plan, nil
}

// Table4Row mirrors one row of the paper's Table 4.
type Table4Row struct {
	Name       string
	TTFT       float64
	QPSPerChip float64
	Schedule   core.Schedule
	Desc       string
}

// Table4 reproduces Table 4: RAGO's max-QPS/chip and min-TTFT schedules
// against the baseline's, for Case II at 1M context on the 128-XPU pool.
func Table4() ([]Table4Row, error) {
	o, front, err := optimize(EvalCaseII.schema(), pool128(), 0)
	if err != nil {
		return nil, err
	}
	base := o.BaselineFrontier()
	rows := make([]Table4Row, 0, 4)
	add := func(name string, p core.SchedulePoint) {
		rows = append(rows, Table4Row{
			Name:       name,
			TTFT:       p.Metrics.TTFT,
			QPSPerChip: p.Metrics.QPSPerChip,
			Schedule:   p.Item,
			Desc:       p.Item.Describe(o.Pipe),
		})
	}
	if p, ok := perf.MaxQPSPerChip(front); ok {
		add("RAGO (Max QPS/Chip)", p)
	}
	if p, ok := perf.MinTTFT(front); ok {
		add("RAGO (Min TTFT)", p)
	}
	if p, ok := perf.MaxQPSPerChip(base); ok {
		add("Baseline (Max QPS/Chip)", p)
	}
	if p, ok := perf.MinTTFT(base); ok {
		add("Baseline (Min TTFT)", p)
	}
	return rows, nil
}
