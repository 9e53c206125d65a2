// Package perf defines the performance metrics used throughout RAGO —
// time-to-first-token (TTFT), time-per-output-token (TPOT), and
// queries-per-second normalized by chip count (QPS/chip) — together with
// generic Pareto-frontier machinery over those metrics.
//
// The paper's optimizer (Algorithm 1) reduces every scheduling decision to
// points in this metric space and reports only the Pareto-optimal subset;
// the helpers here are shared by the per-stage profiler, the end-to-end
// assembler, and the benchmark harness.
package perf

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is one evaluated operating point of a system or stage.
//
// TTFT and TPOT are in seconds. QPS is end-to-end requests per second and
// QPSPerChip is QPS normalized by the number of accelerator chips the
// schedule uses (the paper's cost-efficiency metric).
type Metrics struct {
	TTFT       float64
	TPOT       float64
	QPS        float64
	QPSPerChip float64
	// Recall is the schedule's measured retrieval quality (recall@k of its
	// nprobe/fanout operating point), higher better. 0 means unmeasured —
	// deployments without a calibrated recall surface — in which case the
	// quality axis is inert and every frontier computation reduces exactly
	// to the original three objectives.
	Recall float64
}

// Valid reports whether the metrics are physically meaningful: latencies
// non-negative and finite, throughputs non-negative and finite, recall
// inside [0, 1].
func (m Metrics) Valid() bool {
	for _, v := range []float64{m.TTFT, m.TPOT, m.QPS, m.QPSPerChip} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return !math.IsNaN(m.Recall) && m.Recall >= 0 && m.Recall <= 1
}

// Dominates reports whether m is at least as good as other on every
// objective and strictly better on at least one. Lower TTFT and TPOT are
// better; higher QPSPerChip and Recall are better. Absolute QPS is
// intentionally not an objective: the paper normalizes throughput by chip
// count.
func (m Metrics) Dominates(other Metrics) bool {
	if m.TTFT > other.TTFT || m.TPOT > other.TPOT || m.QPSPerChip < other.QPSPerChip || m.Recall < other.Recall {
		return false
	}
	return m.TTFT < other.TTFT || m.TPOT < other.TPOT || m.QPSPerChip > other.QPSPerChip || m.Recall > other.Recall
}

func (m Metrics) String() string {
	s := fmt.Sprintf("TTFT=%.4fs TPOT=%.4fs QPS=%.2f QPS/chip=%.3f", m.TTFT, m.TPOT, m.QPS, m.QPSPerChip)
	if m.Recall > 0 {
		s += fmt.Sprintf(" recall=%.3f", m.Recall)
	}
	return s
}

// Point couples metrics with an arbitrary payload (typically a schedule
// description) so frontier computation can carry provenance along.
type Point[T any] struct {
	Metrics Metrics
	Item    T
}

// Frontier computes the Pareto-optimal subset of pts under
// Metrics.Dominates and returns it sorted by ascending TTFT (ties broken by
// descending QPS/chip). Points with exactly equal metrics are collapsed to
// the first occurrence. The input slice is not modified.
//
// The implementation sorts by (TTFT asc, TPOT asc, QPS/chip desc, Recall
// desc) and sweeps with a staircase over (TPOT, QPS/chip) per distinct
// recall level: a candidate is dominated iff some already-kept point
// (necessarily with TTFT <= its own, by sort order) at a recall level >=
// its own has TPOT <= and QPS/chip >= its values. Recall takes few
// distinct values in practice (one per calibrated nprobe/fanout operating
// point) so complexity is O(n log n · levels); with the quality axis
// unmeasured there is a single level and the sweep is the original
// three-objective staircase, point for point.
//
// Both sorts order an int32 index slice with the input index as the last
// key, which reproduces a stable sort exactly (so the first occurrence of a
// duplicate is still the one kept) while moving 4-byte indices instead of
// whole points; payloads are copied once, into the output.
func Frontier[T any](pts []Point[T]) []Point[T] {
	idx := make([]int32, 0, len(pts))
	for i := range pts {
		if pts[i].Metrics.Valid() {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx, func(i, j int32) int {
		a, b := &pts[i].Metrics, &pts[j].Metrics
		if c := cmp.Compare(a.TTFT, b.TTFT); c != 0 {
			return c
		}
		if c := cmp.Compare(a.TPOT, b.TPOT); c != 0 {
			return c
		}
		if c := cmp.Compare(b.QPSPerChip, a.QPSPerChip); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Recall, a.Recall); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})

	// Each recall level holds kept (tpot, qps) corners with tpot strictly
	// increasing and qps strictly increasing: bestQPSAtOrBelow(tpot) is
	// the qps of the last corner with tpot' <= tpot. levels is sorted by
	// descending recall so a candidate checks the levels that can
	// dominate it (recall >= its own) as a prefix.
	type corner struct{ tpot, qps float64 }
	type level struct {
		recall float64
		stairs []corner
	}
	var levels []level
	front := idx[:0] // kept indices overwrite the consumed prefix
	for _, pi := range idx {
		m := &pts[pi].Metrics
		dominated := false
		for li := range levels {
			if levels[li].recall < m.Recall {
				break
			}
			stairs := levels[li].stairs
			// Find the rightmost corner with tpot <= m.TPOT.
			i := sort.Search(len(stairs), func(k int) bool { return stairs[k].tpot > m.TPOT }) - 1
			if i >= 0 && stairs[i].qps >= m.QPSPerChip {
				dominated = true // dominated (or an exact duplicate)
				break
			}
		}
		if dominated {
			continue
		}
		front = append(front, pi)
		// Insert the new corner into its own recall level (created on
		// first use) and drop now-redundant successors, in place.
		li := sort.Search(len(levels), func(k int) bool { return levels[k].recall <= m.Recall })
		if li == len(levels) || levels[li].recall != m.Recall {
			levels = slices.Insert(levels, li, level{recall: m.Recall})
		}
		stairs := levels[li].stairs
		ins := sort.Search(len(stairs), func(k int) bool { return stairs[k].tpot > m.TPOT })
		end := ins
		for end < len(stairs) && stairs[end].qps <= m.QPSPerChip {
			end++
		}
		levels[li].stairs = slices.Replace(stairs, ins, end, corner{m.TPOT, m.QPSPerChip})
	}
	slices.SortFunc(front, func(i, j int32) int {
		a, b := &pts[i].Metrics, &pts[j].Metrics
		if c := cmp.Compare(a.TTFT, b.TTFT); c != 0 {
			return c
		}
		if c := cmp.Compare(b.QPSPerChip, a.QPSPerChip); c != 0 {
			return c
		}
		// With the recall axis, points can tie on (TTFT, QPS/chip)
		// without dominance; order them deterministically.
		if c := cmp.Compare(a.TPOT, b.TPOT); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Recall, a.Recall); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	if len(front) == 0 {
		return nil
	}
	out := make([]Point[T], len(front))
	for k, pi := range front {
		out[k] = pts[pi]
	}
	return out
}

// Incremental is a Pareto frontier of Metrics maintained point by point —
// the incumbent set of a branch-and-bound search. Where Frontier computes
// the staircase once over a complete point set, Incremental keeps the same
// (TTFT asc)-sorted staircase live under interleaved Insert and DominatedBy
// queries, and is safe for concurrent use: the schedule search's workers
// share one incumbent, inserting each plan frontier as it completes,
// probing optimistic plan bounds against it before paying for a search, and
// probing each evaluated candidate before keeping it.
//
// Reads take no lock. The members live in an immutable snapshot behind an
// atomic pointer; Insert, serialized by a mutex, builds the next snapshot
// without touching the current one and publishes it with one store. Probes vastly
// outnumber inserts in a search, so the workers never wait on each other
// to read. Members are kept in one total order — (TTFT, TPOT) ascending,
// then QPS/chip and Recall descending — so the snapshot depends only on
// the set inserted, not on the order concurrent inserts landed in.
//
// Only metrics participate; payloads do not. Pruning a search node whose
// admissible bound b satisfies DominatedBy(b) is lossless: every completion
// of the node is weakly worse than b on all objectives, hence strictly
// dominated by whichever incumbent point strictly dominates b.
type Incremental struct {
	mu   sync.Mutex                // serializes Insert
	snap atomic.Pointer[[]Metrics] // non-dominated members, never mutated once stored
}

// members returns the current snapshot; callers must not modify it.
func (inc *Incremental) members() []Metrics {
	if p := inc.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// upTo returns the members of pts with TTFT <= ttft, the only ones that
// can dominate or equal a point at ttft: a prefix of pts, which is sorted
// by TTFT. A NaN ttft keeps every member.
func upTo(pts []Metrics, ttft float64) []Metrics {
	return pts[:sort.Search(len(pts), func(k int) bool { return pts[k].TTFT > ttft })]
}

// DominatedBy reports whether some current member strictly dominates m.
// Equal points do not dominate, so a bound exactly on the frontier is not
// prunable (its completions may tie rather than lose). The candidates are
// scanned from the highest TTFT down: along the frontier QPS/chip rises
// with TTFT, so the members that dominate a probe sit at the end of the
// prefix.
func (inc *Incremental) DominatedBy(m Metrics) bool {
	pts := upTo(inc.members(), m.TTFT)
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Dominates(m) {
			return true
		}
	}
	return false
}

// Insert adds each of ms to the incumbent set in turn, evicting members it
// dominates, and publishes one snapshot for the lot. A point is skipped —
// leaving the set unchanged — when it is invalid, dominated by a member, or
// a duplicate on the four objectives (raw QPS is not an objective, matching
// Frontier's duplicate collapse). Insert reports whether it kept any point.
//
// A published snapshot is never written again: the first point kept goes
// into a fresh copy, which the call edits and then publishes. Both scans
// are scoped by TTFT: only members at or below m's TTFT can reject m, and
// only members at or above it can be evicted by m, so the prefix before
// the first of those stays as it is and m lands after it.
func (inc *Incremental) Insert(ms ...Metrics) bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	pts := inc.members()
	changed := false
	for _, m := range ms {
		if !m.Valid() || rejects(upTo(pts, m.TTFT), m) {
			continue
		}
		if !changed {
			pts, changed = append(make([]Metrics, 0, len(pts)+len(ms)), pts...), true
		}
		lo := sort.Search(len(pts), func(k int) bool { return pts[k].TTFT >= m.TTFT })
		kept := pts[:lo]
		for _, p := range pts[lo:] {
			if !m.Dominates(p) {
				kept = append(kept, p)
			}
		}
		i := lo + sort.Search(len(kept)-lo, func(k int) bool { return memberBefore(m, kept[lo+k]) })
		pts = slices.Insert(kept, i, m)
	}
	if changed {
		inc.snap.Store(&pts)
	}
	return changed
}

// rejects reports whether a member of pts dominates m or equals it on the
// four objectives.
func rejects(pts []Metrics, m Metrics) bool {
	for _, p := range pts {
		if (p.TTFT == m.TTFT && p.TPOT == m.TPOT && p.QPSPerChip == m.QPSPerChip && p.Recall == m.Recall) || p.Dominates(m) {
			return true
		}
	}
	return false
}

// memberBefore is the snapshot's total order on distinct members: TTFT
// and TPOT ascending, then QPS/chip and Recall descending.
func memberBefore(a, b Metrics) bool {
	if a.TTFT != b.TTFT {
		return a.TTFT < b.TTFT
	}
	if a.TPOT != b.TPOT {
		return a.TPOT < b.TPOT
	}
	if a.QPSPerChip != b.QPSPerChip {
		return a.QPSPerChip > b.QPSPerChip
	}
	return a.Recall > b.Recall
}

// Len returns the current frontier size.
func (inc *Incremental) Len() int {
	return len(inc.members())
}

// Points returns a copy of the current frontier, sorted by ascending TTFT.
func (inc *Incremental) Points() []Metrics {
	return slices.Clone(inc.members())
}

// MaxQPSPerChip returns the frontier point with the highest QPS/chip.
// The boolean is false when pts is empty.
func MaxQPSPerChip[T any](pts []Point[T]) (Point[T], bool) {
	var best Point[T]
	found := false
	for _, p := range pts {
		if !p.Metrics.Valid() {
			continue
		}
		if !found || p.Metrics.QPSPerChip > best.Metrics.QPSPerChip {
			best, found = p, true
		}
	}
	return best, found
}

// MinTTFT returns the frontier point with the lowest TTFT, breaking ties by
// higher QPS/chip. The boolean is false when pts is empty.
func MinTTFT[T any](pts []Point[T]) (Point[T], bool) {
	var best Point[T]
	found := false
	for _, p := range pts {
		if !p.Metrics.Valid() {
			continue
		}
		if !found || p.Metrics.TTFT < best.Metrics.TTFT ||
			(p.Metrics.TTFT == best.Metrics.TTFT && p.Metrics.QPSPerChip > best.Metrics.QPSPerChip) {
			best, found = p, true
		}
	}
	return best, found
}
