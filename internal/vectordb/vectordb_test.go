package vectordb

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestFlatExactness(t *testing.T) {
	// FlatIndex must agree with a naive sort over all distances.
	data := GenUniform(500, 16, 1)
	ix := NewFlat(16)
	if err := ix.Add(data...); err != nil {
		t.Fatal(err)
	}
	q := GenUniform(1, 16, 2)[0]
	got, err := ix.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		id int
		d  float32
	}
	all := make([]pair, len(data))
	for i, v := range data {
		all[i] = pair{i, SquaredL2(q, v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	for i := range got {
		if got[i].ID != all[i].id {
			t.Fatalf("rank %d: got id %d, want %d", i, got[i].ID, all[i].id)
		}
	}
	// Results sorted ascending.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Errorf("results not sorted at %d", i)
		}
	}
}

func TestFlatErrors(t *testing.T) {
	ix := NewFlat(8)
	if err := ix.Add(make([]float32, 4)); err == nil {
		t.Errorf("dim mismatch on Add should error")
	}
	if err := ix.Add(make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(make([]float32, 4), 1); err == nil {
		t.Errorf("dim mismatch on Search should error")
	}
	if _, err := ix.Search(make([]float32, 8), 0); err == nil {
		t.Errorf("k=0 should error")
	}
}

// TestNonFiniteInputRejected: one NaN or infinite component anywhere in a
// build or insert is an error naming the vector and the dimension. Were it
// accepted, a single NaN would put every vector into cell 0 and make every
// search distance NaN without an error. A query with one is an error naming
// the dimension (and, in a batch, the query); were it accepted, the search
// would return arbitrary IDs at NaN distance.
func TestNonFiniteInputRejected(t *testing.T) {
	entries := []struct {
		name string
		call func(data [][]float32) error
	}{
		{"KMeans", func(data [][]float32) error { _, err := KMeans(data, 8, 5, 1); return err }},
		{"TrainPQ", func(data [][]float32) error { _, err := TrainPQ(data, 4, 1); return err }},
		{"BuildIVFPQ", func(data [][]float32) error { _, err := BuildIVFPQ(data, 32, 4, 1); return err }},
		{"FlatIndex.Add", func(data [][]float32) error {
			f := NewFlat(len(data[0]))
			err := f.Add(data...)
			if err != nil && f.Len() != 0 {
				t.Errorf("FlatIndex.Add: a failed Add kept %d vectors", f.Len())
			}
			return err
		}},
	}
	for _, e := range entries {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			data := GenClustered(2000, 16, 8, 1.0, 5)
			data[1234][7] = bad
			err := e.call(data)
			if err == nil || !strings.Contains(err.Error(), "vector 1234") || !strings.Contains(err.Error(), "dimension 7") {
				t.Errorf("%s with %v at vector 1234, dimension 7: err %v", e.name, bad, err)
			}
		}
	}

	data := GenClustered(2000, 16, 8, 1.0, 5)
	ix, err := BuildIVFPQ(data, 32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(ix, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(16)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name string
		call func(qs [][]float32) error
	}{
		{"IVFPQ.Search", func(qs [][]float32) error { _, err := ix.Search(qs[2], 3, 4); return err }},
		{"IVFPQ.SearchBatch", func(qs [][]float32) error { _, err := ix.SearchBatch(qs, 3, 4); return err }},
		{"Sharded.Search", func(qs [][]float32) error { _, err := sh.Search(qs[2], 3, 4, 4, nil); return err }},
		{"Sharded.SearchBatch", func(qs [][]float32) error { _, err := sh.SearchBatch(qs, 3, 4, 4, nil); return err }},
		{"FlatIndex.Search", func(qs [][]float32) error { _, err := flat.Search(qs[2], 3); return err }},
		{"FlatIndex.SearchBatch", func(qs [][]float32) error { _, err := flat.SearchBatch(qs, 3); return err }},
	}
	for _, e := range queries {
		for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			qs := GenClustered(4, 16, 2, 1.0, 6)
			qs[2][3] = bad
			err := e.call(qs)
			if err == nil || !strings.Contains(err.Error(), "dimension 3") {
				t.Errorf("%s with %v at query dimension 3: err %v", e.name, bad, err)
			}
			if strings.HasSuffix(e.name, "Batch") && (err == nil || !strings.Contains(err.Error(), "batch query 2")) {
				t.Errorf("%s with %v in query 2: err %v, want it named", e.name, bad, err)
			}
		}
	}
}

func TestFlatBytesScanned(t *testing.T) {
	ix := NewFlat(768)
	if err := ix.Add(GenUniform(100, 768, 3)...); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.BytesScanned(), 100.0*768*4; got != want {
		t.Errorf("BytesScanned = %v, want %v", got, want)
	}
}

func TestKMeansConvergesOnSeparatedClusters(t *testing.T) {
	// Three well-separated blobs: k-means must place one centroid near
	// each center.
	data := GenClustered(600, 8, 3, 0.05, 7)
	cents, err := KMeans(data, 3, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 3 {
		t.Fatalf("got %d centroids, want 3", len(cents))
	}
	// Within-cluster distance must be far smaller than between-centroid
	// distance.
	minBetween := float32(math.MaxFloat32)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if d := SquaredL2(cents[i], cents[j]); d < minBetween {
				minBetween = d
			}
		}
	}
	var maxWithin float32
	for _, v := range data {
		c := nearestCentroid(v, cents)
		if d := SquaredL2(v, cents[c]); d > maxWithin {
			maxWithin = d
		}
	}
	if maxWithin*4 > minBetween {
		t.Errorf("clusters not separated: within=%v between=%v", maxWithin, minBetween)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	data := GenClustered(200, 4, 4, 0.1, 11)
	a, err := KMeans(data, 4, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(data, 4, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatalf("non-deterministic centroid %d", i)
			}
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(nil, 2, 5, 1); err == nil {
		t.Errorf("empty dataset should error")
	}
	if _, err := KMeans(GenUniform(5, 2, 1), 0, 5, 1); err == nil {
		t.Errorf("k=0 should error")
	}
	// k >= n is legal: every point its own centroid.
	cents, err := KMeans(GenUniform(3, 2, 1), 5, 5, 1)
	if err != nil || len(cents) != 5 {
		t.Errorf("k>n: got %d centroids, err %v; want 5 centroids", len(cents), err)
	}
}

func TestPQRoundTrip(t *testing.T) {
	data := GenClustered(800, 32, 8, 0.3, 13)
	pq, err := TrainPQ(data, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	if pq.CodeBytes() != 8 {
		t.Errorf("CodeBytes = %d, want 8", pq.CodeBytes())
	}
	code, err := pq.Encode(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 8 {
		t.Errorf("code length = %d, want 8", len(code))
	}
	rec, err := pq.Decode(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 32 {
		t.Errorf("decoded dim = %d, want 32", len(rec))
	}
	dist, err := pq.QuantizationError(data[:100])
	if err != nil {
		t.Fatal(err)
	}
	if dist > 0.15 {
		t.Errorf("normalized distortion = %v, want < 0.15 on clustered data", dist)
	}
}

func TestPQMoreSubspacesLessError(t *testing.T) {
	// §2: PQ trades bytes for accuracy — more code bytes, less
	// distortion.
	data := GenClustered(600, 32, 6, 0.5, 17)
	var prev float64 = math.MaxFloat64
	for _, m := range []int{2, 8, 32} {
		pq, err := TrainPQ(data, m, 17)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := pq.QuantizationError(data[:150])
		if err != nil {
			t.Fatal(err)
		}
		if dist >= prev {
			t.Errorf("m=%d distortion %v not below m-smaller %v", m, dist, prev)
		}
		prev = dist
	}
}

func TestPQADCApproximatesTrueDistance(t *testing.T) {
	data := GenClustered(500, 16, 4, 0.2, 19)
	pq, err := TrainPQ(data, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	q := data[7]
	table, err := pq.DistTable(q)
	if err != nil {
		t.Fatal(err)
	}
	// ADC distance must equal the exact distance to the reconstruction.
	for _, v := range data[:50] {
		code, err := pq.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := pq.Decode(code)
		if err != nil {
			t.Fatal(err)
		}
		adc := pq.ADC(table, code)
		exact := SquaredL2(q, rec)
		if math.Abs(float64(adc-exact)) > 1e-3*(1+float64(exact)) {
			t.Fatalf("ADC %v != distance-to-reconstruction %v", adc, exact)
		}
	}
}

func TestPQErrors(t *testing.T) {
	data := GenUniform(100, 16, 1)
	if _, err := TrainPQ(data, 5, 1); err == nil {
		t.Errorf("m not dividing dim should error")
	}
	if _, err := TrainPQ(nil, 4, 1); err == nil {
		t.Errorf("empty dataset should error")
	}
	pq, err := TrainPQ(data, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Encode(make([]float32, 3)); err == nil {
		t.Errorf("bad encode dim should error")
	}
	if _, err := pq.Decode(make([]byte, 3)); err == nil {
		t.Errorf("bad code length should error")
	}
	if _, err := pq.DistTable(make([]float32, 3)); err == nil {
		t.Errorf("bad query dim should error")
	}
	if _, err := pq.QuantizationError(nil); err == nil {
		t.Errorf("empty sample should error")
	}
}

func TestIVFPQRecallGrowsWithNprobe(t *testing.T) {
	// The fundamental retrieval trade-off of §5.1: scanning more of the
	// database (larger nprobe) buys recall.
	data := GenClustered(3000, 32, 32, 0.4, 23)
	ix, err := BuildIVFPQ(data, 32, 16, 23)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(32)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	queries := GenClustered(20, 32, 32, 0.4, 29)
	recallAt := func(nprobe int) float64 {
		var sum float64
		for _, q := range queries {
			truth, err := flat.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Search(q, 10, nprobe)
			if err != nil {
				t.Fatal(err)
			}
			sum += Recall(truth, got, 10)
		}
		return sum / float64(len(queries))
	}
	r1, r4, r32 := recallAt(1), recallAt(4), recallAt(32)
	if !(r32 >= r4 && r4 >= r1) {
		t.Errorf("recall not monotone in nprobe: %v %v %v", r1, r4, r32)
	}
	if r32 < 0.70 {
		t.Errorf("full-probe PQ recall = %v, want >= 0.70", r32)
	}
	if r1 > r32 {
		t.Errorf("probing one cell should not beat probing all")
	}
}

func TestIVFPQRecallGrowsWithCodeBytes(t *testing.T) {
	// §2: PQ memory efficiency trades against accuracy — larger codes,
	// higher recall at fixed scan fraction.
	data := GenClustered(3000, 32, 32, 0.4, 23)
	flat := NewFlat(32)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	queries := GenClustered(15, 32, 32, 0.4, 29)
	var prev float64 = -1
	for _, m := range []int{8, 16, 32} {
		ix, err := BuildIVFPQ(data, 32, m, 23)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, q := range queries {
			truth, err := flat.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Search(q, 10, 32)
			if err != nil {
				t.Fatal(err)
			}
			sum += Recall(truth, got, 10)
		}
		r := sum / float64(len(queries))
		if r <= prev {
			t.Errorf("recall at m=%d (%v) not above smaller code (%v)", m, r, prev)
		}
		prev = r
	}
}

func TestIVFPQBytesScanned(t *testing.T) {
	data := GenClustered(2000, 32, 16, 0.4, 31)
	ix, err := BuildIVFPQ(data, 16, 8, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Scanning 4 of 16 cells touches ~1/4 of vectors.
	frac := ix.VectorsScanned(4) / float64(ix.Len())
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("scan fraction = %v, want 0.25", frac)
	}
	if got, want := ix.BytesScanned(4), ix.VectorsScanned(4)*8; got != want {
		t.Errorf("BytesScanned = %v, want %v", got, want)
	}
	if got := ix.VectorsScanned(100); got != float64(ix.Len()) {
		t.Errorf("over-probing should scan everything: %v", got)
	}
}

func TestIVFPQErrors(t *testing.T) {
	data := GenUniform(100, 8, 1)
	if _, err := BuildIVFPQ(nil, 4, 2, 1); err == nil {
		t.Errorf("empty dataset should error")
	}
	if _, err := BuildIVFPQ(data, 0, 2, 1); err == nil {
		t.Errorf("nlist=0 should error")
	}
	ix, err := BuildIVFPQ(data, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(make([]float32, 3), 5, 1); err == nil {
		t.Errorf("bad query dim should error")
	}
	if _, err := ix.Search(make([]float32, 8), 0, 1); err == nil {
		t.Errorf("k=0 should error")
	}
	if _, err := ix.Search(make([]float32, 8), 5, 0); err == nil {
		t.Errorf("nprobe=0 should error")
	}
}

func TestRecallHelper(t *testing.T) {
	truth := []Result{{ID: 1}, {ID: 2}, {ID: 3}}
	got := []Result{{ID: 2}, {ID: 9}, {ID: 1}}
	if r := Recall(truth, got, 3); math.Abs(r-2.0/3) > 1e-9 {
		t.Errorf("recall = %v, want 2/3", r)
	}
	if r := Recall(truth, got, 0); r != 0 {
		t.Errorf("recall@0 = %v, want 0", r)
	}
	if r := Recall(truth, truth, 5); r != 1 {
		t.Errorf("recall of truth against itself = %v, want 1", r)
	}
}

// Property: ADC(table(q), Encode(v)) equals SquaredL2(q, Decode(Encode(v)))
// for random vectors (asymmetric distance is exact w.r.t. reconstruction).
func TestADCProperty(t *testing.T) {
	data := GenUniform(300, 8, 37)
	pq, err := TrainPQ(data, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := make([]float32, 8)
		v := make([]float32, 8)
		for i := range q {
			q[i], v[i] = rng.Float32(), rng.Float32()
		}
		table, err := pq.DistTable(q)
		if err != nil {
			return false
		}
		code, err := pq.Encode(v)
		if err != nil {
			return false
		}
		rec, err := pq.Decode(code)
		if err != nil {
			return false
		}
		adc := float64(pq.ADC(table, code))
		exact := float64(SquaredL2(q, rec))
		return math.Abs(adc-exact) <= 1e-3*(1+exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: top-k results from FlatIndex are a subset of top-(k+5) and in
// consistent order.
func TestTopKNesting(t *testing.T) {
	data := GenUniform(400, 8, 41)
	ix := NewFlat(8)
	if err := ix.Add(data...); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, rawK uint8) bool {
		k := int(rawK)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		q := make([]float32, 8)
		for i := range q {
			q[i] = rng.Float32()
		}
		small, err := ix.Search(q, k)
		if err != nil {
			return false
		}
		big, err := ix.Search(q, k+5)
		if err != nil {
			return false
		}
		for i := range small {
			if small[i].ID != big[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
