package vectordb

import (
	"fmt"
	"math"
	"runtime"
)

// PQ is a product quantizer: the vector space is split into M subspaces and
// each subspace is vector-quantized against its own 256-entry codebook, so
// a vector compresses to M bytes. With dim=768 and M=96 this is the paper's
// 1-byte-per-8-dimensions compression (§2, §4).
type PQ struct {
	dim    int
	m      int // number of subspaces == code bytes
	subDim int
	// codebooks holds every subspace's 256 centroids dimension-major,
	// [m][subDim][256] contiguous: the layout sqDists streams over.
	codebooks []float32
	// entries holds the same centroids centroid-major, [m][256][subDim],
	// and orders[s] sorts subspace s's for encoding.
	entries []float32
	orders  []keyOrder
}

// pqCentroids is the codebook size per subspace; one byte addresses it.
const pqCentroids = 256

// TrainPQ learns a product quantizer from data. m must divide the vector
// dimensionality. Training runs k-means independently per subspace (seeded
// seed+s), so the subspaces train concurrently and the result does not
// depend on GOMAXPROCS.
func TrainPQ(data [][]float32, m int, seed int64) (*PQ, error) {
	pq, _, err := trainPQ(data, m, seed, false)
	return pq, err
}

// trainPQ is TrainPQ that, with encode, also returns every training
// vector's code, subspace-major: codes[s*len(data)+i] is vector i's byte in
// subspace s. Each is the subspace k-means' final assignment, the entry
// encodeInto picks (a padded codebook repeats entries at higher indexes,
// which lose the tie).
func trainPQ(data [][]float32, m int, seed int64, encode bool) (*PQ, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("vectordb: TrainPQ on empty dataset")
	}
	dim := len(data[0])
	if err := checkDataset(data, dim); err != nil {
		return nil, nil, err
	}
	if m < 1 || dim%m != 0 {
		return nil, nil, fmt.Errorf("vectordb: PQ subspaces %d must divide dim %d", m, dim)
	}
	n, sub := len(data), dim/m
	pq := &PQ{dim: dim, m: m, subDim: sub,
		codebooks: make([]float32, m*pqCentroids*sub),
		entries:   make([]float32, m*pqCentroids*sub),
		orders:    make([]keyOrder, m)}
	var codes []byte
	if encode {
		codes = make([]byte, m*n)
	}
	k := min(pqCentroids, n)
	procs := runtime.GOMAXPROCS(0)
	inner := max(1, procs/m) // workers inside each k-means once the subspaces are spread
	parallelFor(m, 1, procs, func(lo, hi int) {
		var l lloyd
		for s := lo; s < hi; s++ {
			cents, assign := l.kmeans(data, s*sub, sub, k, 10, seed+int64(s), inner, encode)
			for i, c := range assign {
				codes[s*n+i] = byte(c)
			}
			// Fewer than 256 training points: pad the codebook with
			// repeats so codes are always one byte.
			entries := pq.entries[s*pqCentroids*sub:][:pqCentroids*sub]
			for c := 0; c < pqCentroids; c++ {
				copy(entries[c*sub:(c+1)*sub], cents[(c%k)*sub:])
			}
			transpose(pq.book(s), entries, pqCentroids, sub)
			pq.orders[s].reset(entries, pqCentroids, sub)
		}
	})
	return pq, codes, nil
}

// book returns subspace s's codebook, dimension-major ([subDim][256]).
func (p *PQ) book(s int) []float32 {
	n := pqCentroids * p.subDim
	return p.codebooks[s*n : (s+1)*n]
}

// Dim returns the full vector dimensionality.
func (p *PQ) Dim() int { return p.dim }

// CodeBytes returns the compressed size of one vector (== M).
func (p *PQ) CodeBytes() int { return p.m }

// Encode compresses v to an M-byte code.
func (p *PQ) Encode(v []float32) ([]byte, error) {
	if len(v) != p.dim {
		return nil, fmt.Errorf("vectordb: encode dim %d != %d", len(v), p.dim)
	}
	code := make([]byte, p.m)
	p.encodeInto(code, v)
	return code, nil
}

// encodeInto writes v's M-byte code into code: per subspace, the nearest
// codebook entry.
func (p *PQ) encodeInto(code []byte, v []float32) {
	for s := range code {
		code[s] = byte(p.orders[s].nearest(v[s*p.subDim:(s+1)*p.subDim], -1))
	}
}

// Decode reconstructs the approximate vector for a code.
func (p *PQ) Decode(code []byte) ([]float32, error) {
	if len(code) != p.m {
		return nil, fmt.Errorf("vectordb: code length %d != %d", len(code), p.m)
	}
	out := make([]float32, 0, p.dim)
	for s, c := range code {
		out = append(out, p.entries[(s*pqCentroids+int(c))*p.subDim:][:p.subDim]...)
	}
	return out, nil
}

// DistTable precomputes, for a query, the squared distance from each query
// subvector to every codebook entry — the asymmetric distance computation
// (ADC) lookup tables that make PQ scanning a pure table-walk (this is the
// byte-scan workload the analytical retrieval model times). The returned
// rows are views over one contiguous m·256 table.
func (p *PQ) DistTable(q []float32) ([][]float32, error) {
	if len(q) != p.dim {
		return nil, fmt.Errorf("vectordb: query dim %d != %d", len(q), p.dim)
	}
	lut := make([][pqCentroids]float32, p.m)
	p.fillLUT(lut, q)
	table := make([][]float32, p.m)
	for s := range table {
		table[s] = lut[s][:]
	}
	return table, nil
}

// fillLUT writes q's ADC table into lut (len m): lut[s][c] is the squared
// distance from q's s-th subvector to codebook entry c, summed sequentially
// over the subspace's dimensions exactly as SquaredL2 does (sqDists).
func (p *PQ) fillLUT(lut [][pqCentroids]float32, q []float32) {
	for s := range lut {
		sqDists(lut[s][:], q[s*p.subDim:(s+1)*p.subDim], p.book(s))
	}
}

// ADC returns the approximate squared distance of the encoded vector from
// the query whose DistTable is given: one accumulator over s = 0..m-1.
func (p *PQ) ADC(table [][]float32, code []byte) float32 {
	var d float32
	for s, c := range code {
		d += table[s][c]
	}
	return d
}

// QuantizationError returns the mean squared reconstruction error of the
// quantizer over a sample, normalized by the mean squared vector norm —
// a unitless distortion in [0, ~1] that shrinks as M grows.
func (p *PQ) QuantizationError(sample [][]float32) (float64, error) {
	if len(sample) == 0 {
		return 0, fmt.Errorf("vectordb: empty sample")
	}
	var errSum, normSum float64
	for _, v := range sample {
		code, err := p.Encode(v)
		if err != nil {
			return 0, err
		}
		rec, err := p.Decode(code)
		if err != nil {
			return 0, err
		}
		errSum += float64(SquaredL2(v, rec))
		var n float64
		for _, x := range v {
			n += float64(x) * float64(x)
		}
		normSum += n
	}
	if normSum == 0 {
		return 0, nil
	}
	e := errSum / normSum
	if math.IsNaN(e) {
		return 0, fmt.Errorf("vectordb: NaN distortion")
	}
	return e, nil
}
