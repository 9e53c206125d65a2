package perf

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// frontierRef is the previous Frontier implementation, kept verbatim as the
// reference the index-sorted version is differential-tested against: it
// stable-sorts whole points through reflect swaps, which reproduces the same
// order and the same duplicate representative by construction.
func frontierRef[T any](pts []Point[T]) []Point[T] {
	valid := make([]Point[T], 0, len(pts))
	for _, p := range pts {
		if p.Metrics.Valid() {
			valid = append(valid, p)
		}
	}
	sort.SliceStable(valid, func(i, j int) bool {
		a, b := valid[i].Metrics, valid[j].Metrics
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
	var front []Point[T]
	for _, p := range valid {
		m := p.Metrics
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
		front = append(front, p)
		// Insert the new corner into its own recall level (created on
		// first use) and drop now-redundant successors.
		li := sort.Search(len(levels), func(k int) bool { return levels[k].recall <= m.Recall })
		if li == len(levels) || levels[li].recall != m.Recall {
			levels = append(levels, level{})
			copy(levels[li+1:], levels[li:])
			levels[li] = level{recall: m.Recall}
		}
		stairs := levels[li].stairs
		i := sort.Search(len(stairs), func(k int) bool { return stairs[k].tpot > m.TPOT }) - 1
		ins := i + 1
		end := ins
		for end < len(stairs) && stairs[end].qps <= m.QPSPerChip {
			end++
		}
		levels[li].stairs = append(stairs[:ins], append([]corner{{m.TPOT, m.QPSPerChip}}, stairs[end:]...)...)
	}
	sort.SliceStable(front, func(i, j int) bool {
		a, b := front[i].Metrics, front[j].Metrics
		if a.TTFT != b.TTFT {
			return a.TTFT < b.TTFT
		}
		if a.QPSPerChip != b.QPSPerChip {
			return a.QPSPerChip > b.QPSPerChip
		}
		// With the recall axis, points can tie on (TTFT, QPS/chip)
		// without dominance; order them deterministically.
		if a.TPOT != b.TPOT {
			return a.TPOT < b.TPOT
		}
		return a.Recall > b.Recall
	})
	return front
}

// payload is a non-trivial point payload: the differential test must show
// which of several exactly-equal points represents them, not just that the
// metric sets agree.
type payload struct {
	id  int
	tag string
}

// TestFrontierMatchesStableSortReference drives the index-sorted Frontier
// against the stable-sort reference on random inputs drawn from a small pool
// of grid metrics (gridMetrics: several recall levels, occasional invalid
// values) — so most points have exact duplicates carrying distinct
// payloads. The outputs must be identical slices: same order, same
// representative payload.
func TestFrontierMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 600; trial++ {
		pool := make([]Metrics, 1+rng.Intn(40))
		for i := range pool {
			pool[i] = gridMetrics(rng)
		}
		pts := make([]Point[payload], rng.Intn(300))
		for i := range pts {
			pts[i] = Point[payload]{Metrics: pool[rng.Intn(len(pool))], Item: payload{id: i, tag: string(rune('a' + i%26))}}
		}
		got := Frontier(pts)
		want := frontierRef(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: index-sorted frontier diverged from the reference\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
}
