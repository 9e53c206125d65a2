package vectordb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// KMeans clusters data into k centroids with Lloyd's algorithm seeded by
// k-means++ initialization. Each assignment step finds every point's
// nearest centroid with keyOrder.nearest, an exact pruned search that
// returns what a full scan would (the first smallest squared distance). It
// is deterministic for a given seed — and for any GOMAXPROCS: only the
// per-point distance steps run in parallel, every float accumulation across
// points stays serial in index order. iters bounds the refinement passes;
// the loop exits early on convergence. The returned rows are views over one
// contiguous backing array.
func KMeans(data [][]float32, k, iters int, seed int64) ([][]float32, error) {
	if k < 1 {
		return nil, fmt.Errorf("vectordb: kmeans k = %d < 1", k)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("vectordb: kmeans on empty dataset")
	}
	dim := len(data[0])
	if err := checkDataset(data, dim); err != nil {
		return nil, err
	}
	cents := kmeans(data, 0, dim, k, iters, seed, runtime.GOMAXPROCS(0))
	return rowViews(cents, k, dim), nil
}

// kmeans clusters the sub-vectors data[i][off:off+dim] into k centroids,
// returned flat (k*dim), using up to workers goroutines. Every iteration
// re-sorts the centroids into a keyOrder and starts each point's search
// from its previous assignment.
func kmeans(data [][]float32, off, dim, k, iters int, seed int64, workers int) []float32 {
	n := len(data)
	cents := make([]float32, k*dim)
	if k >= n {
		// Degenerate but legal: every point its own centroid, padded by
		// repeats.
		for c := 0; c < k; c++ {
			copy(cents[c*dim:(c+1)*dim], data[c%n][off:])
		}
		return cents
	}

	rng := rand.New(rand.NewSource(seed))
	kmeansPlusPlus(cents, data, off, dim, k, rng, workers)

	assign := make([]int, n)
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	var ord keyOrder
	for it := 0; it < iters; it++ {
		ord.reset(cents, k, dim)
		var changed atomic.Int64
		parallelFor(n, pointGrain, workers, func(lo, hi int) {
			ch := 0
			for i := lo; i < hi; i++ {
				if c := ord.nearest(data[i][off:off+dim], assign[i]); assign[i] != c {
					assign[i] = c
					ch++
				}
			}
			changed.Add(int64(ch))
		})
		if it > 0 && changed.Load() == 0 {
			break
		}
		// Recompute means, accumulating serially in point order.
		clear(sums)
		clear(counts)
		for i, v := range data {
			c := assign[i]
			counts[c]++
			sum := sums[c*dim : (c+1)*dim]
			for d, x := range v[off : off+dim] {
				sum[d] += float64(x)
			}
		}
		for c := 0; c < k; c++ {
			cent := cents[c*dim : (c+1)*dim]
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random point.
				copy(cent, data[rng.Intn(n)][off:])
				continue
			}
			for d := range cent {
				cent[d] = float32(sums[c*dim+d] / float64(counts[c]))
			}
		}
	}
	return cents
}

// kmeansPlusPlus fills cents with k initial centroids picked with D^2
// weighting. The distance updates run in parallel; the weight total is
// summed serially in point order.
func kmeansPlusPlus(cents []float32, data [][]float32, off, dim, k int, rng *rand.Rand, workers int) {
	n := len(data)
	copy(cents[:dim], data[rng.Intn(n)][off:])
	d2 := make([]float64, n)
	for c := 1; c < k; {
		last := cents[(c-1)*dim : c*dim]
		first := c == 1
		parallelFor(n, pointGrain, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				d := float64(SquaredL2(data[i][off:off+dim], last))
				if first || d < d2[i] {
					d2[i] = d
				}
			}
		})
		var total float64
		for _, w := range d2 {
			total += w
		}
		idx := 0
		if total == 0 {
			// All remaining points coincide with centroids.
			idx = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			for i, w := range d2 {
				r -= w
				if r <= 0 {
					idx = i
					break
				}
			}
		}
		copy(cents[c*dim:(c+1)*dim], data[idx][off:])
		c++
	}
}

// transpose writes the k centroids of src (centroid-major, k*dim) into dst
// dimension-major: dst[d*k+c] = src[c*dim+d].
func transpose(dst, src []float32, k, dim int) {
	for c := 0; c < k; c++ {
		for d, x := range src[c*dim : (c+1)*dim] {
			dst[d*k+c] = x
		}
	}
}

// sqDists sets dst[c] to the squared distance from v to centroid c, for the
// len(dst) centroids stored dimension-major in centsT. It makes one
// streaming pass per dimension, so each dst[c] accumulates its terms in
// dimension order — the same float32 sum SquaredL2 computes — while the
// inner loop stays free of per-centroid overhead whatever the dimension.
func sqDists(dst, v, centsT []float32) {
	k := len(dst)
	clear(dst)
	for d, x := range v {
		col := centsT[d*k:][:k]
		for c := range dst {
			e := x - col[c]
			dst[c] += e * e
		}
	}
}

// keyOrder holds k centroids sorted by one key coordinate for exact pruned
// nearest-centroid search. It refers to the centroids, centroid-major, and
// must be reset after they change.
type keyOrder struct {
	dim, key int
	cents    []float32 // k*dim, centroid-major
	keys     []float32 // the key coordinate of each slot, ascending
	ids      []int     // the centroid in each slot; equal keys ascend by index
}

// reset sorts the k centroids of cents (centroid-major) on the dimension
// where they spread widest, the lowest such dimension on a tie.
func (o *keyOrder) reset(cents []float32, k, dim int) {
	o.dim, o.cents, o.key = dim, cents, 0
	widest := float32(-1)
	for d := 0; d < dim; d++ {
		lo, hi := cents[d], cents[d]
		for c := 1; c < k; c++ {
			lo, hi = min(lo, cents[c*dim+d]), max(hi, cents[c*dim+d])
		}
		if hi-lo > widest {
			widest, o.key = hi-lo, d
		}
	}
	o.ids = grow(o.ids, k)
	for c := range o.ids {
		o.ids[c] = c
	}
	key := func(c int) float32 { return cents[c*dim+o.key] }
	slices.SortFunc(o.ids, func(a, b int) int {
		if c := cmp.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return a - b
	})
	o.keys = grow(o.keys, k)
	for j, c := range o.ids {
		o.keys[j] = key(c)
	}
}

// nearest returns the centroid nearest to v: the first smallest squared
// distance, summed in dimension order as SquaredL2 and sqDists sum it, so
// exactly the index a full scan returns. The search starts from centroid
// start's distance (start < 0: none), binary-searches v's key coordinate
// and walks outward in both directions, one candidate from each per step,
// their sums run in lockstep. The squared distance is a float32 sum of
// non-negative terms, and rounding never makes a partial sum decrease, so
// any one coordinate's term bounds the whole sum from below: a direction
// stops once its key term alone exceeds the best distance so far, and a
// step's sums are abandoned once both do. An exact tie goes to the lower
// index.
func (o *keyOrder) nearest(v []float32, start int) int {
	k, dim := len(o.ids), o.dim
	best, bi := float32(math.Inf(1)), k
	if start >= 0 {
		best, bi = SquaredL2(v, o.cents[start*dim:][:dim]), start
	}
	x, keys := v[o.key], o.keys
	// r becomes the first slot whose key is >= x. slices.BinarySearch
	// finds the same slot, but its NaN-aware compare cost ~7% per point on
	// 2-float PQ subspaces.
	r, hi := 0, k
	for r < hi {
		if h := int(uint(r+hi) >> 1); keys[h] < x {
			r = h + 1
		} else {
			hi = h
		}
	}
	l := r - 1
	for {
		cl, cr := -1, -1
		if l >= 0 {
			if e := x - keys[l]; e*e > best {
				l = -1
			} else {
				cl, l = o.ids[l], l-1
			}
		}
		if r < k {
			if e := x - keys[r]; e*e > best {
				r = k
			} else {
				cr, r = o.ids[r], r+1
			}
		}
		switch { // a stopped direction repeats the other's candidate
		case cl < 0 && cr < 0:
			return bi
		case cl < 0:
			cl = cr
		case cr < 0:
			cr = cl
		}
		a, b := o.cents[cl*dim:][:dim], o.cents[cr*dim:][:dim]
		var sa, sb float32
		for d, y := range v {
			ea, eb := y-a[d], y-b[d]
			sa += ea * ea
			sb += eb * eb
			if sa > best && sb > best {
				break
			}
		}
		if sa < best || sa == best && cl < bi {
			best, bi = sa, cl
		}
		if sb < best || sb == best && cr < bi {
			best, bi = sb, cr
		}
	}
}

// pointGrain is the fewest data points worth a goroutine of their own in
// the build's per-point steps.
const pointGrain = 512

// parallelFor splits [0, n) into one contiguous range per worker — at least
// grain items each — and runs fn(lo, hi) on each, waiting for all. Which
// items a worker gets never affects results: callers write per-item slots
// or order-free counters.
func parallelFor(n, grain, workers int, fn func(lo, hi int)) {
	workers = min(workers, n/grain)
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
}
