package vectordb

import (
	"fmt"
	"runtime"
)

// IVFPQ is an inverted-file index with product-quantized residual-free
// codes: vectors are partitioned into nlist cells by a coarse k-means
// quantizer; a query scans only the nprobe nearest cells, computing
// approximate distances via PQ lookup tables. This is the IVF-PQ family
// the paper identifies as the standard for hyperscale RAG retrieval (§2).
//
// Cell c's inverted list is ids[listOff[c]:listOff[c+1]] beside the code
// block codes[listOff[c]*m : listOff[c+1]*m]; members keep ascending ID
// order.
type IVFPQ struct {
	dim       int
	nlist     int
	centroids []float32 // dimension-major: centroids[d*nlist+c]
	listOff   []int     // nlist+1
	ids       []int
	codes     []byte
	pq        *PQ
}

// BuildIVFPQ trains a coarse quantizer with nlist cells and an m-byte
// product quantizer, then files every vector under its cell with its code.
// Both come from the training itself: the last bounded k-means pass of the
// coarse quantizer assigns each vector its nearest cell and that of each
// PQ subspace its code byte, exactly as a full scan would, so the build
// searches no vector again. The index is byte-identical for any GOMAXPROCS.
func BuildIVFPQ(data [][]float32, nlist, m int, seed int64) (*IVFPQ, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("vectordb: BuildIVFPQ on empty dataset")
	}
	dim := len(data[0])
	if err := checkDataset(data, dim); err != nil {
		return nil, err
	}
	if nlist < 1 {
		return nil, fmt.Errorf("vectordb: nlist = %d < 1", nlist)
	}
	// The coarse quantizer and the product quantizer train independently,
	// so they train at the same time.
	var (
		pq    *PQ
		codes []byte
		err   error
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		pq, codes, err = trainPQ(data, m, seed+1, true)
	}()
	cents, cells := new(lloyd).kmeans(data, 0, dim, nlist, 12, seed, runtime.GOMAXPROCS(0), true)
	if <-done; err != nil {
		return nil, err
	}
	n := len(data)
	ix := &IVFPQ{
		dim:       dim,
		nlist:     nlist,
		centroids: make([]float32, nlist*dim),
		listOff:   make([]int, nlist+1),
		ids:       make([]int, n),
		codes:     make([]byte, n*m),
		pq:        pq,
	}
	transpose(ix.centroids, cents, nlist, dim)
	// Counting sort by cell, ascending by ID within a cell.
	for _, cell := range cells {
		ix.listOff[cell+1]++
	}
	for c := 0; c < nlist; c++ {
		ix.listOff[c+1] += ix.listOff[c]
	}
	fill := append([]int(nil), ix.listOff[:nlist]...)
	for id, cell := range cells {
		pos := fill[cell]
		fill[cell]++
		ix.ids[pos] = id
		code := ix.codes[pos*m : (pos+1)*m]
		for s := range code {
			code[s] = codes[s*n+id]
		}
	}
	return ix, nil
}

// Len returns the number of indexed vectors.
func (ix *IVFPQ) Len() int { return len(ix.ids) }

// NList returns the number of coarse cells.
func (ix *IVFPQ) NList() int { return ix.nlist }

// Search returns the approximate k nearest neighbors of q, probing the
// nprobe closest inverted lists.
func (ix *IVFPQ) Search(q []float32, k, nprobe int) ([]Result, error) {
	s := scratchPool.Get().(*scratch)
	out, err := ix.searchInto(s, q, k, nprobe, nil)
	scratchPool.Put(s)
	return out, err
}

// searchInto appends the approximate k nearest neighbors of q to dst.
func (ix *IVFPQ) searchInto(s *scratch, q []float32, k, nprobe int, dst []Result) ([]Result, error) {
	if err := ix.checkQuery(q, k, nprobe); err != nil {
		return nil, err
	}
	s.top.reset(k)
	for _, c := range ix.probe(s, q, nprobe) {
		ix.scanCell(s, c.ID)
	}
	return append(dst, s.top.sorted()...), nil
}

func (ix *IVFPQ) checkQuery(q []float32, k, nprobe int) error {
	if err := checkVector(q, ix.dim); err != nil {
		return fmt.Errorf("vectordb: query %w", err)
	}
	if k < 1 {
		return fmt.Errorf("vectordb: k = %d < 1", k)
	}
	if nprobe < 1 {
		return fmt.Errorf("vectordb: nprobe = %d < 1", nprobe)
	}
	return nil
}

// probe builds q's ADC table into s.lut and returns the nprobe cells
// nearest to q in ascending (distance, cell) order — a total order, so
// equidistant centroids probe identically in a single index and in a
// sharded one. Selection keeps an nprobe-sized heap rather than sorting
// every cell.
func (ix *IVFPQ) probe(s *scratch, q []float32, nprobe int) []Result {
	s.lut = grow(s.lut, ix.pq.m)
	ix.pq.fillLUT(s.lut, q)

	s.dists = grow(s.dists, ix.nlist)
	sqDists(s.dists, q, ix.centroids)
	s.cells.reset(min(nprobe, ix.nlist))
	for c, d := range s.dists {
		s.cells.offer(c, d)
	}
	return s.cells.sorted()
}

// scanCell offers every vector of one inverted list to s.top. A vector's
// ADC distance is one accumulator chain over j = 0..m-1 (the order PQ.ADC
// sums in); four vectors walk the table together so their chains overlap.
func (ix *IVFPQ) scanCell(s *scratch, cell int) {
	lo, hi := ix.listOff[cell], ix.listOff[cell+1]
	ids := ix.ids[lo:hi]
	lut := s.lut[:ix.pq.m]
	m := len(lut)
	codes := ix.codes[lo*m : hi*m]
	t := &s.top
	for len(ids) > 0 {
		var d [4]float32
		n := min(len(ids), len(d))
		if n == len(d) {
			c0, c1, c2, c3 := codes[:m], codes[m:][:m], codes[2*m:][:m], codes[3*m:][:m]
			var d0, d1, d2, d3 float32 // scalars: the compiler keeps arrays in memory
			for j := range lut {
				row := &lut[j]
				d0 += row[c0[j]]
				d1 += row[c1[j]]
				d2 += row[c2[j]]
				d3 += row[c3[j]]
			}
			d = [4]float32{d0, d1, d2, d3}
		} else {
			for i := 0; i < n; i++ {
				for j, c := range codes[i*m : (i+1)*m] {
					d[i] += lut[j][c]
				}
			}
		}
		for i, id := range ids[:n] {
			if t.admits(id, d[i]) {
				t.insert(id, d[i])
			}
		}
		ids, codes = ids[n:], codes[n*m:]
	}
}

// VectorsScanned returns how many database vectors a query with the given
// nprobe touches on average (expected over cells, using actual list
// occupancy). Dividing by Len gives the empirical P_scan of §3.3.
func (ix *IVFPQ) VectorsScanned(nprobe int) float64 {
	if nprobe > ix.nlist {
		nprobe = ix.nlist
	}
	if nprobe < 1 || ix.Len() == 0 {
		return 0
	}
	// Average list length times probes approximates expected scan work
	// for a balanced index.
	return float64(ix.Len()) / float64(ix.nlist) * float64(nprobe)
}

// BytesScanned returns the PQ-code bytes the scan touches; this is the
// quantity the analytical retrieval model prices (§3.3: N*B*P_scan).
func (ix *IVFPQ) BytesScanned(nprobe int) float64 {
	return ix.VectorsScanned(nprobe) * float64(ix.pq.CodeBytes())
}
