package perf

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// frontierBruteForce is the O(n²) reference for Frontier's contract: drop
// invalid points, drop strictly dominated points, collapse exact duplicates
// to their first occurrence, and stable-sort the survivors by (TTFT asc,
// QPS/chip desc).
func frontierBruteForce(pts []Point[int]) []Point[int] {
	var valid []Point[int]
	for _, p := range pts {
		if p.Metrics.Valid() {
			valid = append(valid, p)
		}
	}
	var kept []Point[int]
	for i, p := range valid {
		dominated := false
		for _, q := range valid {
			if q.Metrics.Dominates(p.Metrics) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		// Duplicates collapse on the four objectives; raw QPS is not
		// one (the paper normalizes throughput by chip count).
		dup := false
		for _, q := range valid[:i] {
			if q.Metrics.TTFT == p.Metrics.TTFT && q.Metrics.TPOT == p.Metrics.TPOT &&
				q.Metrics.QPSPerChip == p.Metrics.QPSPerChip && q.Metrics.Recall == p.Metrics.Recall {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, p)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		a, b := kept[i].Metrics, kept[j].Metrics
		if a.TTFT != b.TTFT {
			return a.TTFT < b.TTFT
		}
		if a.QPSPerChip != b.QPSPerChip {
			return a.QPSPerChip > b.QPSPerChip
		}
		if a.TPOT != b.TPOT {
			return a.TPOT < b.TPOT
		}
		return a.Recall > b.Recall
	})
	return kept
}

// gridMetrics draws metrics from a coarse grid (forcing ties and exact
// duplicates) with occasional NaN/Inf/negative pollution. Recall draws
// from the same grid (a valid [0, 0.4] range) with zero common — the
// unmeasured quality axis must coexist with measured points.
func gridMetrics(rng *rand.Rand) Metrics {
	grid := func() float64 { return float64(rng.Intn(5)) * 0.1 }
	m := Metrics{TTFT: grid(), TPOT: grid(), QPS: grid() * 100, QPSPerChip: grid() * 10, Recall: grid()}
	if rng.Intn(10) == 0 {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
		f := bad[rng.Intn(len(bad))]
		switch rng.Intn(5) {
		case 0:
			m.TTFT = f
		case 1:
			m.TPOT = f
		case 2:
			m.QPS = f
		case 3:
			m.Recall = bad[rng.Intn(2)] // NaN or out-of-range high
			if m.Recall > 1 {
				m.Recall = 1.5
			}
		default:
			m.QPSPerChip = f
		}
	}
	return m
}

// TestFrontierMatchesBruteForce drives the staircase sweep against the
// quadratic reference on random point sets.
func TestFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(60)
		pts := make([]Point[int], n)
		for i := range pts {
			pts[i] = Point[int]{Metrics: gridMetrics(rng), Item: i}
		}
		got := Frontier(pts)
		want := frontierBruteForce(pts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: frontier size %d, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Metrics != want[i].Metrics || got[i].Item != want[i].Item {
				t.Fatalf("trial %d: point %d diverged: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestIncrementalMatchesFrontier cross-checks the branch-and-bound
// incumbent against the batch staircase: inserting every point one by one
// must converge to the same non-dominated metric set Frontier computes,
// and DominatedBy must agree with the brute-force strict-dominance test
// for every input point.
func TestIncrementalMatchesFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50)
		pts := make([]Point[int], n)
		var inc Incremental
		for i := range pts {
			pts[i] = Point[int]{Metrics: gridMetrics(rng), Item: i}
			inc.Insert(pts[i].Metrics)
		}
		want := map[Metrics]bool{}
		for _, p := range Frontier(pts) {
			want[p.Metrics] = true
		}
		got := inc.Points()
		if len(got) != len(want) {
			t.Fatalf("trial %d: incumbent holds %d points, frontier %d", trial, len(got), len(want))
		}
		for i, m := range got {
			if !want[m] {
				t.Fatalf("trial %d: incumbent point %v not on batch frontier", trial, m)
			}
			if i > 0 && got[i-1].TTFT > m.TTFT {
				t.Fatalf("trial %d: incumbent points not TTFT-sorted", trial)
			}
		}
		for _, p := range pts {
			if !p.Metrics.Valid() {
				continue
			}
			dominated := false
			for m := range want {
				if m.Dominates(p.Metrics) {
					dominated = true
					break
				}
			}
			if inc.DominatedBy(p.Metrics) != dominated {
				t.Fatalf("trial %d: DominatedBy(%v) = %v, brute force says %v", trial, p.Metrics, !dominated, dominated)
			}
		}
	}
}

// TestIncrementalConcurrent inserts disjoint shuffled shares of one point
// set, in small batches, from several goroutines while others probe the
// incumbent, as the schedule search's workers do. Every snapshot a reader
// sees must be a valid staircase — in the members' total order, no member
// dominating another — a point once dominated must stay dominated, and
// the final set must equal a serial insertion of the whole set, order
// included.
func TestIncrementalConcurrent(t *testing.T) {
	const writers, readers, perWriter = 4, 3, 1500
	rng := rand.New(rand.NewSource(41))
	pts := make([]Metrics, writers*perWriter)
	for i := range pts {
		// A TTFT-for-throughput trade-off on coarse grids: a frontier of
		// hundreds of members, with ties and exact duplicates. Raw QPS
		// follows QPS/chip, so duplicates on the four objectives are
		// whole duplicates and the survivor cannot depend on the order.
		k := rng.Intn(400)
		m := Metrics{
			TTFT:       float64(k) * 0.01,
			TPOT:       float64(rng.Intn(4)) * 0.1,
			QPSPerChip: float64(k/4+rng.Intn(6)) * 0.5,
			Recall:     float64(rng.Intn(3)) * 0.2,
		}
		if rng.Intn(20) == 0 {
			m.TPOT = math.NaN()
		}
		m.QPS = m.QPSPerChip * 8
		pts[i] = m
	}
	var serial Incremental
	for _, m := range pts {
		serial.Insert(m)
	}
	want := serial.Points()

	var inc Incremental
	var wg, done sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for r := range readers {
		done.Add(1)
		go func() {
			defer done.Done()
			rr := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The incumbent only ever tightens, so a point dominated in
				// one snapshot stays dominated in every later one.
				q := pts[rr.Intn(len(pts))]
				if q.Valid() && inc.DominatedBy(q) {
					if gt, ge := inc.QPSThresholds(q.TTFT, q.TPOT, q.Recall); !(q.QPSPerChip < gt || q.QPSPerChip <= ge) {
						errs <- "a dominated point reads as undominated later"
						return
					}
				}
				snap := inc.Points()
				for i := range snap {
					if i > 0 && !memberBefore(snap[i-1], snap[i]) {
						errs <- "snapshot out of order"
						return
					}
					for j := range snap {
						if snap[j].Dominates(snap[i]) {
							errs <- "snapshot holds a dominated member"
							return
						}
					}
				}
			}
		}()
	}
	order := rng.Perm(len(pts))
	for w := range writers {
		share := order[w*perWriter : (w+1)*perWriter]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(share) > 0 {
				// Batches of 1–7 points, as plan frontiers arrive.
				n := min(len(share), 1+len(share)%7)
				batch := make([]Metrics, n)
				for j, i := range share[:n] {
					batch[j] = pts[i]
				}
				inc.Insert(batch...)
				share = share[n:]
			}
		}()
	}
	wg.Wait()
	close(stop)
	done.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := inc.Points(); !slices.Equal(got, want) {
		t.Fatalf("concurrent insertion kept %d points, serial %d:\n%v\n%v", len(got), len(want), got, want)
	}
}

// TestIncrementalInsertSemantics pins the incumbent's edge cases: invalid
// points, exact duplicates, and eviction of newly dominated members.
func TestIncrementalInsertSemantics(t *testing.T) {
	var inc Incremental
	if inc.Insert(Metrics{TTFT: math.NaN(), TPOT: 1, QPS: 1, QPSPerChip: 1}) {
		t.Fatal("inserted NaN metrics")
	}
	if inc.Insert(Metrics{TTFT: math.Inf(1), TPOT: 1, QPS: 1, QPSPerChip: 1}) {
		t.Fatal("inserted Inf metrics")
	}
	m := Metrics{TTFT: 1, TPOT: 0.1, QPS: 10, QPSPerChip: 1}
	if !inc.Insert(m) {
		t.Fatal("rejected a valid first point")
	}
	if inc.Insert(m) {
		t.Fatal("inserted an exact duplicate")
	}
	if inc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", inc.Len())
	}
	// A dominating point evicts.
	better := Metrics{TTFT: 0.5, TPOT: 0.05, QPS: 20, QPSPerChip: 2}
	if !inc.Insert(better) {
		t.Fatal("rejected a dominating point")
	}
	if inc.Len() != 1 || inc.Points()[0] != better {
		t.Fatalf("dominated member not evicted: %v", inc.Points())
	}
	// Equal points do not dominate: a bound exactly on the frontier must
	// not be prunable.
	if inc.DominatedBy(better) {
		t.Fatal("a frontier member reads as dominated")
	}
	// An incomparable point coexists.
	side := Metrics{TTFT: 0.1, TPOT: 0.5, QPS: 1, QPSPerChip: 0.5}
	if !inc.Insert(side) || inc.Len() != 2 {
		t.Fatalf("incomparable point rejected; frontier %v", inc.Points())
	}
}
