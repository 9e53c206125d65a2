package vectordb

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// KMeans clusters data into k centroids with Lloyd's algorithm seeded by
// k-means++ initialization. It is deterministic for a given seed — and for
// any GOMAXPROCS: only the per-point distance steps run in parallel, every
// float accumulation across points stays serial in index order. iters bounds the
// refinement passes; the loop exits early on convergence. The returned rows
// are views over one contiguous backing array.
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
// returned flat (k*dim), using up to workers goroutines.
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
	centsT := make([]float32, k*dim)
	for it := 0; it < iters; it++ {
		transpose(centsT, cents, k, dim)
		var changed atomic.Int64
		parallelFor(n, pointGrain, workers, func(lo, hi int) {
			dists, ch := make([]float32, k), 0
			for i := lo; i < hi; i++ {
				sqDists(dists, data[i][off:off+dim], centsT)
				if c := argmin(dists); assign[i] != c {
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

// argmin returns the index of the first smallest distance (strict <).
func argmin(dists []float32) int {
	best, bestD := 0, float32(0)
	for c, d := range dists {
		if c == 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
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
