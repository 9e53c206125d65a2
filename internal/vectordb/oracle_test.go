package vectordb

// The slice-of-slices implementation this package shipped before the flat
// layout, kept verbatim (modulo ref* names) as the oracle the differential
// tests compare against: serial k-means over [][]float32, per-vector code
// slices, a [][]float32 ADC table, container/heap top-k and a full sort of
// the coarse cells. The one deliberate difference is refNearestCells, which
// sorts on the (dist, cell) total order the package now defines instead of
// on distance alone.

import (
	"container/heap"
	"math/rand"
	"sort"
)

type refHeap []Result

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return less(h[j], h[i]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type refTopK struct {
	k int
	h refHeap
}

func (t *refTopK) offer(id int, dist float32) {
	if len(t.h) < t.k {
		heap.Push(&t.h, Result{ID: id, Dist: dist})
		return
	}
	if less(Result{ID: id, Dist: dist}, t.h[0]) {
		t.h[0] = Result{ID: id, Dist: dist}
		heap.Fix(&t.h, 0)
	}
}

func (t *refTopK) results() []Result {
	out := make([]Result, len(t.h))
	copy(out, t.h)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func refFlatSearch(vecs [][]float32, q []float32, k int) []Result {
	t := &refTopK{k: k}
	for id, v := range vecs {
		t.offer(id, SquaredL2(q, v))
	}
	return t.results()
}

func nearestCentroid(v []float32, cents [][]float32) int {
	best, bestD := 0, float32(0)
	for i, c := range cents {
		d := SquaredL2(v, c)
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func refKMeans(data [][]float32, k, iters int, seed int64) [][]float32 {
	dim := len(data[0])
	if k >= len(data) {
		cents := make([][]float32, k)
		for i := range cents {
			cents[i] = append([]float32(nil), data[i%len(data)]...)
		}
		return cents
	}
	rng := rand.New(rand.NewSource(seed))
	cents := refKMeansPlusPlus(data, k, rng)
	assign := make([]int, len(data))
	for it := 0; it < iters; it++ {
		changed := 0
		for i, v := range data {
			c := nearestCentroid(v, cents)
			if assign[i] != c {
				assign[i] = c
				changed++
			}
		}
		if it > 0 && changed == 0 {
			break
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, v := range data {
			c := assign[i]
			counts[c]++
			for d, x := range v {
				sums[c][d] += float64(x)
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				cents[c] = append([]float32(nil), data[rng.Intn(len(data))]...)
				continue
			}
			for d := range cents[c] {
				cents[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
	}
	return cents
}

func refKMeansPlusPlus(data [][]float32, k int, rng *rand.Rand) [][]float32 {
	cents := make([][]float32, 0, k)
	cents = append(cents, append([]float32(nil), data[rng.Intn(len(data))]...))
	d2 := make([]float64, len(data))
	for len(cents) < k {
		var total float64
		last := cents[len(cents)-1]
		for i, v := range data {
			d := float64(SquaredL2(v, last))
			if len(cents) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			cents = append(cents, append([]float32(nil), data[rng.Intn(len(data))]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, w := range d2 {
			r -= w
			if r <= 0 {
				idx = i
				break
			}
		}
		cents = append(cents, append([]float32(nil), data[idx]...))
	}
	return cents
}

type refPQ struct {
	dim, m, subDim int
	codebooks      [][][]float32 // [m][256][subDim]
}

func refTrainPQ(data [][]float32, m int, seed int64) *refPQ {
	dim := len(data[0])
	sub := dim / m
	pq := &refPQ{dim: dim, m: m, subDim: sub, codebooks: make([][][]float32, m)}
	slice := make([][]float32, len(data))
	for s := 0; s < m; s++ {
		for i, v := range data {
			slice[i] = v[s*sub : (s+1)*sub]
		}
		k := pqCentroids
		if len(data) < k {
			k = len(data)
		}
		cents := refKMeans(slice, k, 10, seed+int64(s))
		for len(cents) < pqCentroids {
			cents = append(cents, append([]float32(nil), cents[len(cents)%k]...))
		}
		pq.codebooks[s] = cents
	}
	return pq
}

func (p *refPQ) encode(v []float32) []byte {
	code := make([]byte, p.m)
	for s := 0; s < p.m; s++ {
		code[s] = byte(nearestCentroid(v[s*p.subDim:(s+1)*p.subDim], p.codebooks[s]))
	}
	return code
}

func (p *refPQ) distTable(q []float32) [][]float32 {
	table := make([][]float32, p.m)
	for s := 0; s < p.m; s++ {
		sub := q[s*p.subDim : (s+1)*p.subDim]
		row := make([]float32, pqCentroids)
		for c, cent := range p.codebooks[s] {
			row[c] = SquaredL2(sub, cent)
		}
		table[s] = row
	}
	return table
}

func (p *refPQ) adc(table [][]float32, code []byte) float32 {
	var d float32
	for s, c := range code {
		d += table[s][c]
	}
	return d
}

type refIVFPQ struct {
	centroids [][]float32
	listIDs   [][]int
	listCodes [][][]byte
	pq        *refPQ
}

func refBuildIVFPQ(data [][]float32, nlist, m int, seed int64) *refIVFPQ {
	cents := refKMeans(data, nlist, 12, seed)
	pq := refTrainPQ(data, m, seed+1)
	ix := &refIVFPQ{centroids: cents, listIDs: make([][]int, nlist), listCodes: make([][][]byte, nlist), pq: pq}
	for id, v := range data {
		cell := nearestCentroid(v, cents)
		ix.listIDs[cell] = append(ix.listIDs[cell], id)
		ix.listCodes[cell] = append(ix.listCodes[cell], pq.encode(v))
	}
	return ix
}

func (ix *refIVFPQ) nearestCells(q []float32, n int) []int {
	ds := make([]Result, len(ix.centroids))
	for i, c := range ix.centroids {
		ds[i] = Result{ID: i, Dist: SquaredL2(q, c)}
	}
	sort.Slice(ds, func(i, j int) bool { return less(ds[i], ds[j]) })
	out := make([]int, n)
	for i := range out {
		out[i] = ds[i].ID
	}
	return out
}

func (ix *refIVFPQ) scan(t *refTopK, table [][]float32, cell int) {
	for i, id := range ix.listIDs[cell] {
		t.offer(id, ix.pq.adc(table, ix.listCodes[cell][i]))
	}
}

func (ix *refIVFPQ) search(q []float32, k, nprobe int) []Result {
	if nprobe > len(ix.centroids) {
		nprobe = len(ix.centroids)
	}
	table := ix.pq.distTable(q)
	t := &refTopK{k: k}
	for _, c := range ix.nearestCells(q, nprobe) {
		ix.scan(t, table, c)
	}
	return t.results()
}

// searchSharded is the scatter-gather of the old Sharded.Search over cell c
// on shard c mod shards: a map of per-shard cell buckets in best-cell rank
// order, the first fanout shards consulted, shards in lost dropped from the
// merge. It returns the merged top-k plus the excluded and lost counts.
func (ix *refIVFPQ) searchSharded(q []float32, k, nprobe, shards, fanout int, lost map[int]bool) (res []Result, excluded, nLost int) {
	if nprobe > len(ix.centroids) {
		nprobe = len(ix.centroids)
	}
	if fanout <= 0 || fanout > shards {
		fanout = shards
	}
	cellsOf := make(map[int][]int, shards)
	var order []int
	for _, c := range ix.nearestCells(q, nprobe) {
		sh := c % shards
		if _, seen := cellsOf[sh]; !seen {
			order = append(order, sh)
		}
		cellsOf[sh] = append(cellsOf[sh], c)
	}
	consulted := order
	if len(order) > fanout {
		consulted = order[:fanout]
		excluded = len(order) - fanout
	}
	table := ix.pq.distTable(q)
	t := &refTopK{k: k}
	for _, sh := range consulted {
		if lost[sh] {
			nLost++
			continue
		}
		for _, c := range cellsOf[sh] {
			ix.scan(t, table, c)
		}
	}
	return t.results(), excluded, nLost
}
