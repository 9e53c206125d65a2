package retrieval

import (
	"fmt"
	"math"
	"sort"
)

// BaseNProbe is the probe count the package's default ScanFraction values
// correspond to: a DB description prices its configured ScanFraction at
// this nprobe, and Tuned scales linearly from there (IVF scan work is
// proportional to probed cells for a balanced index). It matches the
// serving CLI's default -nprobe.
const BaseNProbe = 8

// shardGatherSeconds is the per-consulted-shard cost of the scatter-gather
// aggregator: issuing the sub-query, receiving the partial top-k, and
// merging it. Tens of microseconds on a host — small against a leaf scan,
// but monotone in fanout so the optimizer sees the gather cost of
// consulting more shards.
const shardGatherSeconds = 20e-6

// Tuned returns the database as searched at the given nprobe and
// shard-fanout: the scan fraction scales by nprobe/BaseNProbe (more probed
// cells, proportionally more leaf bytes) and by fanout/shards (cells on
// shards outside the fanout budget are not scanned). Zero or negative
// nprobe keeps the base probe count; fanout outside [1, shards] means all
// shards. The scan fraction is clamped to (0, 1].
func (d DB) Tuned(nprobe, fanout, shards int) DB {
	scale := 1.0
	if nprobe > 0 {
		scale *= float64(nprobe) / float64(BaseNProbe)
	}
	if shards > 0 && fanout > 0 && fanout < shards {
		scale *= float64(fanout) / float64(shards)
	}
	t := d
	t.ScanFraction = math.Min(1, d.ScanFraction*scale)
	if t.ScanFraction <= 0 {
		t.ScanFraction = d.ScanFraction
	}
	return t
}

// GatherLatency is the scatter-gather aggregation time for one retrieval
// consulting fanout shards (0 or negative means a single merge hop).
func GatherLatency(fanout int) float64 {
	if fanout < 1 {
		fanout = 1
	}
	// The conversion rounds the product, so no architecture fuses it into
	// the sum of a caller it is inlined into.
	return float64(float64(fanout) * shardGatherSeconds)
}

// RecallModel is a measured recall@k surface over (nprobe, fanout),
// calibrated offline against exact ground truth (vectordb's
// Sharded.CalibrateRecall produces the grid) and interpolated bilinearly
// between grid points. It is the quality leg of the retrieval cost model:
// the analytic planner prices latency and throughput from the roofline and
// recall from this surface, so the optimizer's Pareto frontier can carry a
// measured quality axis instead of treating retrieval accuracy as fixed.
type RecallModel struct {
	// NProbes and Fanouts are the calibrated grid axes, strictly ascending.
	NProbes []int
	Fanouts []int
	// Grid[i][j] is measured recall@k at NProbes[i], Fanouts[j].
	Grid [][]float64
}

// NewRecallModel validates and wraps a calibrated recall grid.
func NewRecallModel(nprobes, fanouts []int, grid [][]float64) (*RecallModel, error) {
	if len(nprobes) == 0 || len(fanouts) == 0 {
		return nil, fmt.Errorf("retrieval: recall model needs non-empty axes")
	}
	if !sort.IntsAreSorted(nprobes) || !sort.IntsAreSorted(fanouts) {
		return nil, fmt.Errorf("retrieval: recall model axes must be ascending")
	}
	for i := 1; i < len(nprobes); i++ {
		if nprobes[i] == nprobes[i-1] {
			return nil, fmt.Errorf("retrieval: duplicate nprobe %d in recall model", nprobes[i])
		}
	}
	for i := 1; i < len(fanouts); i++ {
		if fanouts[i] == fanouts[i-1] {
			return nil, fmt.Errorf("retrieval: duplicate fanout %d in recall model", fanouts[i])
		}
	}
	if len(grid) != len(nprobes) {
		return nil, fmt.Errorf("retrieval: recall grid has %d rows, want %d", len(grid), len(nprobes))
	}
	for i, row := range grid {
		if len(row) != len(fanouts) {
			return nil, fmt.Errorf("retrieval: recall grid row %d has %d cols, want %d", i, len(row), len(fanouts))
		}
		for j, r := range row {
			if r < 0 || r > 1 || math.IsNaN(r) {
				return nil, fmt.Errorf("retrieval: recall grid[%d][%d] = %v outside [0,1]", i, j, r)
			}
		}
	}
	return &RecallModel{
		NProbes: append([]int(nil), nprobes...),
		Fanouts: append([]int(nil), fanouts...),
		Grid:    append([][]float64(nil), grid...),
	}, nil
}

// Recall interpolates the calibrated surface at (nprobe, fanout), clamping
// to the grid's range. Zero or negative nprobe means BaseNProbe; zero or
// negative fanout means the largest calibrated fanout (all shards).
func (m *RecallModel) Recall(nprobe, fanout int) float64 {
	if m == nil {
		return 0
	}
	if nprobe <= 0 {
		nprobe = BaseNProbe
	}
	if fanout <= 0 {
		fanout = m.Fanouts[len(m.Fanouts)-1]
	}
	i0, i1, ti := gridPos(m.NProbes, nprobe)
	j0, j1, tj := gridPos(m.Fanouts, fanout)
	// The conversions round each product, so no architecture fuses it into
	// the sum.
	r0 := float64(m.Grid[i0][j0]*(1-tj)) + float64(m.Grid[i0][j1]*tj)
	r1 := float64(m.Grid[i1][j0]*(1-tj)) + float64(m.Grid[i1][j1]*tj)
	return float64(r0*(1-ti)) + float64(r1*ti)
}

// MaxRecall returns the surface's best value (highest nprobe, full fanout)
// — the admissible recall upper bound the schedule search prunes with.
func (m *RecallModel) MaxRecall() float64 {
	if m == nil {
		return 0
	}
	best := 0.0
	for _, row := range m.Grid {
		for _, r := range row {
			if r > best {
				best = r
			}
		}
	}
	return best
}

// gridPos locates v on an ascending axis: bracketing indices and the
// interpolation weight toward the upper one. Out-of-range values clamp.
func gridPos(axis []int, v int) (lo, hi int, t float64) {
	if v <= axis[0] {
		return 0, 0, 0
	}
	last := len(axis) - 1
	if v >= axis[last] {
		return last, last, 0
	}
	hi = sort.SearchInts(axis, v)
	if axis[hi] == v {
		return hi, hi, 0
	}
	lo = hi - 1
	t = float64(v-axis[lo]) / float64(axis[hi]-axis[lo])
	return lo, hi, t
}
