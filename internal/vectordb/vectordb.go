// Package vectordb is a working vector-search substrate: exact kNN, k-means
// clustering, product quantization (PQ), and IVF-PQ indexes of the kind the
// paper's retrieval tier models analytically (§2, §4b).
//
// The hyperscale experiments use the analytical model in
// rago/internal/retrieval (64 billion vectors do not fit a test machine),
// but this package grounds that model: it exhibits the same
// recall-vs-bytes-scanned trade-off on real data, implements the 1-byte-per-
// 8-dims PQ compression the paper assumes, and serves as the retrieval
// engine for runnable examples.
//
// Storage is flat: centroids, codebooks and exact vectors are contiguous
// []float32, and each inverted list is one contiguous code block beside its
// ID block, so a scan is the table-walk the analytical model prices. Every
// float summation keeps one fixed order (documented at each kernel), which
// makes results bit-reproducible across layouts, worker counts and
// GOMAXPROCS, and across both bodies of the distance kernel sqDists: the
// AVX2 one (chosen from CPUID) rounds every term as the portable loop does.
package vectordb

import (
	"fmt"
	"math"
	"sync"
)

// Result is one nearest-neighbor candidate.
type Result struct {
	ID   int
	Dist float32
}

// SquaredL2 returns the squared Euclidean distance between two vectors of
// equal dimensionality. It is the metric used throughout the package (the
// paper's retrieval compares L2 or cosine; squared L2 orders identically
// to L2). The sum runs sequentially over the dimensions; every internal
// distance kernel accumulates in this same order.
func SquaredL2(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDist4 returns the squared distances from q to the four consecutive
// vectors of vs (4·len(q) floats), each summed in dimension order as
// SquaredL2 sums it; the four accumulator chains run in lockstep so their
// additions overlap.
func sqDist4(q, vs []float32) [4]float32 {
	dim := len(q)
	v0, v1, v2, v3 := vs[:dim], vs[dim:][:dim], vs[2*dim:][:dim], vs[3*dim:][:dim]
	var d0, d1, d2, d3 float32 // scalars: the compiler keeps arrays in memory
	for j, x := range q {
		e0, e1, e2, e3 := x-v0[j], x-v1[j], x-v2[j], x-v3[j]
		d0 += e0 * e0
		d1 += e1 * e1
		d2 += e2 * e2
		d3 += e3 * e3
	}
	return [4]float32{d0, d1, d2, d3}
}

// less is the total order on candidates: distance, ties by ID.
func less(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// topK accumulates the k smallest results seen so far in a max-heap on
// (Dist, ID), so the worst candidate sits on top and can be evicted in
// O(log k). Ordering by the full (Dist, ID) key — not distance alone — makes
// top-k selection a total order: the k kept candidates are independent of
// offer order, which is what lets the sharded scatter-gather merge return
// bit-identical results to a single-index scan. The heap storage is reused
// across queries (it lives in a pooled scratch).
type topK struct {
	k int
	h []Result
}

func (t *topK) reset(k int) { t.k, t.h = k, t.h[:0] }

// admits reports whether a candidate would enter the top k: once k are
// held, anything not below the current k-th best is rejected on this check,
// before the heap is touched.
func (t *topK) admits(id int, dist float32) bool {
	if len(t.h) < t.k {
		return true
	}
	top := t.h[0]
	return dist < top.Dist || dist == top.Dist && id < top.ID
}

// insert adds a candidate admits accepted, evicting the worst if k are held.
func (t *topK) insert(id int, dist float32) {
	r := Result{ID: id, Dist: dist}
	if len(t.h) < t.k {
		t.h = append(t.h, r)
		t.up(len(t.h) - 1)
		return
	}
	t.h[0] = r
	down(t.h, 0)
}

// offer is admits then insert, for callers outside the scan's inner loop.
func (t *topK) offer(id int, dist float32) {
	if t.admits(id, dist) {
		t.insert(id, dist)
	}
}

func (t *topK) up(i int) {
	h := t.h
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// down restores the max-heap property below i.
func down(h []Result, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c], h[c+1]) {
			c++
		}
		if !less(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted heap-sorts the kept candidates in place into ascending (Dist, ID)
// order and returns them. The view is valid until the next reset.
func (t *topK) sorted() []Result {
	h := t.h
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		down(h[:n], 0)
	}
	return h
}

// scratch is the per-query working set: ADC look-up table, probed-cell
// selection, candidate heap and the sharded scatter state. One scratch
// serves one query at a time; Search takes it from scratchPool and
// SearchBatch holds one per worker, so steady-state searches allocate only
// the results they return.
type scratch struct {
	lut   [][pqCentroids]float32
	dists []float32 // distance from the query to every coarse centroid
	cells topK      // nprobe nearest cells as (ID = cell, Dist = centroid distance)
	top   topK
	shard []shardState
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FlatIndex is an exact brute-force kNN index — the search mode Case II
// uses for small real-time databases (§5.2). Vectors are copied into one
// contiguous store on Add.
type FlatIndex struct {
	dim  int
	n    int
	vecs []float32 // n*dim
}

// NewFlat returns an empty exact index over dim-dimensional vectors.
func NewFlat(dim int) *FlatIndex { return &FlatIndex{dim: dim} }

// Dim returns the index dimensionality.
func (f *FlatIndex) Dim() int { return f.dim }

// Len returns the number of stored vectors.
func (f *FlatIndex) Len() int { return f.n }

// Add appends copies of the vectors; IDs are assigned densely in insertion
// order. A vector of the wrong dimension or with a NaN or infinite
// component fails the whole call and adds nothing.
func (f *FlatIndex) Add(vecs ...[]float32) error {
	for i, v := range vecs {
		if err := checkVector(v, f.dim); err != nil {
			return fmt.Errorf("vectordb: vector %d %w", i, err)
		}
	}
	for _, v := range vecs {
		f.vecs = append(f.vecs, v...)
	}
	f.n += len(vecs)
	return nil
}

// Search returns the k exact nearest neighbors of q.
func (f *FlatIndex) Search(q []float32, k int) ([]Result, error) {
	s := scratchPool.Get().(*scratch)
	out, err := f.searchInto(s, q, k, nil)
	scratchPool.Put(s)
	return out, err
}

// searchInto appends the k exact nearest neighbors of q to dst. Four stored
// vectors are scanned at a time (sqDist4), each distance summed in
// SquaredL2's order, so the Dist bits are those of a one-by-one scan.
func (f *FlatIndex) searchInto(s *scratch, q []float32, k int, dst []Result) ([]Result, error) {
	if err := checkVector(q, f.dim); err != nil {
		return nil, fmt.Errorf("vectordb: query %w", err)
	}
	if k < 1 {
		return nil, fmt.Errorf("vectordb: k = %d < 1", k)
	}
	t := &s.top
	t.reset(k)
	dim, id := f.dim, 0
	for ; id+4 <= f.n; id += 4 {
		for j, d := range sqDist4(q, f.vecs[id*dim:(id+4)*dim]) {
			t.offer(id+j, d)
		}
	}
	for ; id < f.n; id++ {
		t.offer(id, SquaredL2(q, f.vecs[id*dim:(id+1)*dim]))
	}
	return append(dst, t.sorted()...), nil
}

// BytesScanned reports the bytes a full scan touches (float32 storage);
// used to cross-check the analytical retrieval model's accounting.
func (f *FlatIndex) BytesScanned() float64 {
	return float64(f.Len()) * float64(f.dim) * 4
}

// Recall computes recall@k: the fraction of true neighbors found.
// truth and got are result lists; only IDs matter.
func Recall(truth, got []Result, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(truth) {
		k = len(truth)
	}
	if k == 0 {
		return 0
	}
	want := make(map[int]bool, k)
	for _, r := range truth[:k] {
		want[r.ID] = true
	}
	hit := 0
	for i, r := range got {
		if i >= k {
			break
		}
		if want[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// checkDataset validates a training/build dataset.
func checkDataset(data [][]float32, dim int) error {
	if len(data) == 0 {
		return fmt.Errorf("vectordb: empty dataset")
	}
	for i, v := range data {
		if err := checkVector(v, dim); err != nil {
			return fmt.Errorf("vectordb: vector %d %w", i, err)
		}
	}
	return nil
}

// checkVector validates a stored vector or a query: dim finite components.
// One NaN would otherwise make every distance to it NaN, which no
// nearest-centroid or top-k comparison orders. The error reads after the
// vector's name ("vector 12 has ...", "query has ...").
func checkVector(v []float32, dim int) error {
	if len(v) != dim {
		return fmt.Errorf("has dim %d, want %d", len(v), dim)
	}
	for d, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("has non-finite %v at dimension %d", x, d)
		}
	}
	return nil
}

// rowViews returns k row slices over one flat k*dim backing array. Rows are
// capacity-limited so appending to one cannot overwrite its neighbour.
func rowViews(flat []float32, k, dim int) [][]float32 {
	rows := make([][]float32, k)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}
