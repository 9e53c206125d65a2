package vectordb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sameResults reports whether two result lists agree in IDs and Dist bits.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Dist) != math.Float32bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// withDuplicates returns n clustered vectors of which roughly a quarter
// repeat an earlier vector exactly (equal distances, ties broken by ID).
func withDuplicates(rng *rand.Rand, n, dim int) [][]float32 {
	data := GenClustered(n, dim, 1+rng.Intn(6), 0.2+rng.Float64(), rng.Int63())
	for i := 1; i < n; i++ {
		if rng.Intn(4) == 0 {
			data[i] = append([]float32(nil), data[rng.Intn(i)]...)
		}
	}
	return data
}

// sameIndex reports whether a built index holds exactly the oracle's
// centroids, codebooks, list membership order and codes.
func sameIndex(ix *IVFPQ, ref *refIVFPQ) error {
	cents := centroidMajor(ix.centroids, ix.nlist, ix.dim)
	for c, cent := range ref.centroids {
		if !sameFloats(cent, cents[c*ix.dim:(c+1)*ix.dim]) {
			return fmt.Errorf("coarse centroid %d differs", c)
		}
	}
	sub := ix.pq.subDim
	for s, book := range ref.pq.codebooks {
		entries := centroidMajor(ix.pq.book(s), pqCentroids, sub)
		for c, cent := range book {
			if !sameFloats(cent, entries[c*sub:(c+1)*sub]) {
				return fmt.Errorf("codebook %d entry %d differs", s, c)
			}
		}
	}
	m := ix.pq.m
	for c := range ref.listIDs {
		lo, hi := ix.listOff[c], ix.listOff[c+1]
		if hi-lo != len(ref.listIDs[c]) {
			return fmt.Errorf("cell %d holds %d vectors, oracle %d", c, hi-lo, len(ref.listIDs[c]))
		}
		for i, id := range ref.listIDs[c] {
			if ix.ids[lo+i] != id || string(ix.codes[(lo+i)*m:(lo+i+1)*m]) != string(ref.listCodes[c][i]) {
				return fmt.Errorf("cell %d member %d differs", c, i)
			}
		}
	}
	return nil
}

// centroidMajor undoes the index's dimension-major storage: k centroids of
// dim floats each, one after the other.
func centroidMajor(dimMajor []float32, k, dim int) []float32 {
	out := make([]float32, k*dim)
	for d := 0; d < dim; d++ {
		for c := 0; c < k; c++ {
			out[c*dim+d] = dimMajor[d*k+c]
		}
	}
	return out
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstOracle builds and searches randomised indexes with
// the flat-layout kernel and with the slice-of-slices oracle, and requires
// identical bytes: trained state, and every []Result (IDs and Dist bits) of
// Search, SearchBatch, Sharded.Search/SearchBatch and FlatIndex.Search —
// duplicates, k beyond the candidate count and lost shards included.
func TestDifferentialAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	for trial := 0; trial < 12; trial++ {
		m := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
		dim := m * (1 + rng.Intn(5))
		if trial%4 == 0 {
			dim = m * (8 + rng.Intn(9)) // wide subspaces too
		}
		n := 40 + rng.Intn(500)
		nlist := 1 + rng.Intn(24)
		seed := rng.Int63()
		data := withDuplicates(rng, n, dim)

		ix, err := BuildIVFPQ(data, nlist, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := refBuildIVFPQ(data, nlist, m, seed)
		if err := sameIndex(ix, ref); err != nil {
			t.Fatalf("trial %d (n=%d dim=%d m=%d nlist=%d): %v", trial, n, dim, m, nlist, err)
		}
		flat := NewFlat(dim)
		if err := flat.Add(data...); err != nil {
			t.Fatal(err)
		}
		shards := 1 + rng.Intn(min(nlist, 5))
		sh, err := NewSharded(ix, shards, 2)
		if err != nil {
			t.Fatal(err)
		}
		lost := map[int]bool{}
		if shards > 1 && trial%3 == 0 {
			down := rng.Intn(shards)
			lost[down] = true
			for r := 0; r < 2; r++ {
				if err := sh.SetReplicaHealth(down, r, false); err != nil {
					t.Fatal(err)
				}
			}
		}

		queries := make([][]float32, 8)
		for i := range queries {
			queries[i] = append([]float32(nil), data[rng.Intn(n)]...)
			if i%2 == 0 {
				for d := range queries[i] {
					queries[i][d] += float32(rng.NormFloat64())
				}
			}
		}
		k := []int{1, 3, 10, n + 7}[rng.Intn(4)]
		nprobe := 1 + rng.Intn(nlist+2)
		fanout := rng.Intn(shards + 2)
		where := fmt.Sprintf("trial %d (n=%d dim=%d m=%d nlist=%d k=%d nprobe=%d shards=%d fanout=%d)",
			trial, n, dim, m, nlist, k, nprobe, shards, fanout)

		batch, err := ix.SearchBatch(queries, k, nprobe)
		if err != nil {
			t.Fatal(err)
		}
		infos := make([]ShardQuery, len(queries))
		shBatch, err := sh.SearchBatch(queries, k, nprobe, fanout, infos)
		if err != nil {
			t.Fatal(err)
		}
		flatBatch, err := flat.SearchBatch(queries, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want := ref.search(q, k, nprobe)
			got, err := ix.Search(q, k, nprobe)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(got, want) || !sameResults(batch[i], want) {
				t.Fatalf("%s query %d: Search %v / batch %v, oracle %v", where, i, got, batch[i], want)
			}
			wantSh, excluded, nLost := ref.searchSharded(q, k, nprobe, shards, fanout, lost)
			var info ShardQuery
			gotSh, err := sh.Search(q, k, nprobe, fanout, &info)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(gotSh, wantSh) || !sameResults(shBatch[i], wantSh) {
				t.Fatalf("%s query %d: sharded %v / batch %v, oracle %v", where, i, gotSh, shBatch[i], wantSh)
			}
			for _, in := range []ShardQuery{info, infos[i]} {
				if in.Excluded != excluded || in.Lost != nLost {
					t.Fatalf("%s query %d: plan excluded/lost %d/%d, oracle %d/%d", where, i, in.Excluded, in.Lost, excluded, nLost)
				}
			}
			wantFlat := refFlatSearch(data, q, k)
			gotFlat, err := flat.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(gotFlat, wantFlat) || !sameResults(flatBatch[i], wantFlat) {
				t.Fatalf("%s query %d: flat %v / batch %v, oracle %v", where, i, gotFlat, flatBatch[i], wantFlat)
			}
		}
	}
}

// TestNearestCentroidMatchesOracle requires keyOrder.nearest, from every
// start index and from none, to return the oracle's full-scan
// nearestCentroid: random sets, and sets engineered against each rule of
// the pruned walk — duplicate centroids, equal key coordinates, grid points
// equidistant from two centroids, k = 1, and squared distances that
// overflow to +Inf.
func TestNearestCentroidMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	check := func(name string, cents []float32, k, dim int, points [][]float32) {
		t.Helper()
		var o keyOrder
		o.reset(cents, k, dim)
		rows := rowViews(cents, k, dim)
		for i, v := range points {
			want := nearestCentroid(v, rows)
			for start := -1; start < k; start++ {
				if got := o.nearest(v, start); got != want {
					t.Fatalf("%s (k=%d dim=%d key=%d) point %d from start %d: %d, full scan %d",
						name, k, dim, o.key, i, start, got, want)
				}
			}
		}
	}
	// gen draws n vectors of dim coordinates from coord.
	gen := func(n, dim int, coord func() float32) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = make([]float32, dim)
			for d := range out[i] {
				out[i][d] = coord()
			}
		}
		return out
	}
	flat := func(rows [][]float32) []float32 {
		var out []float32
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	normal := func() float32 { return float32(rng.NormFloat64()) }
	grid := func() float32 { return float32(rng.Intn(7) - 3) }

	// The smallest tie: (0, 0) is 1 from both centroids, so from start 1
	// only the strict stop rule and the tie-break reach index 0.
	check("midpoint", []float32{-1, 0, 1, 0}, 2, 2, [][]float32{{0, 0}, {0, 5}})

	for trial := 0; trial < 40; trial++ {
		dim := []int{1, 2, 3, 4, 8, 32}[rng.Intn(6)]
		k := 1 + rng.Intn(80)
		if trial%5 == 0 {
			k = 1
		}
		where := fmt.Sprintf("trial %d", trial)

		cents := gen(k, dim, normal)
		check(where+" random", flat(cents), k, dim, gen(30, dim, normal))

		// Duplicate centroids: a third repeat an earlier one exactly.
		for c := 1; c < k; c++ {
			if rng.Intn(3) == 0 {
				copy(cents[c], cents[rng.Intn(c)])
			}
		}
		check(where+" duplicates", flat(cents), k, dim, gen(30, dim, normal))

		// Integer grids: equal key coordinates everywhere, duplicate
		// centroids, and points midway between two centroids, which are
		// exactly equidistant from both.
		gc := gen(k, dim, grid)
		points := gen(20, dim, grid)
		for i := 0; i < 20; i++ {
			a, b := gc[rng.Intn(k)], gc[rng.Intn(k)]
			mid := make([]float32, dim)
			for d := range mid {
				mid[d] = (a[d] + b[d]) / 2
			}
			points = append(points, mid)
		}
		check(where+" grid", flat(gc), k, dim, points)

		// Overflow: huge coordinates beside ordinary ones, so some squared
		// distances are +Inf and some points are +Inf from every centroid.
		huge := func() float32 {
			switch rng.Intn(3) {
			case 0:
				return normal()
			case 1:
				return float32(rng.NormFloat64() * 1e20)
			}
			return float32(rng.Intn(2)*2-1) * 3e38
		}
		check(where+" overflow", flat(gen(k, dim, huge)), k, dim, gen(30, dim, huge))
	}
}

// TestDistTableAndADCMatchOracle pins the public table and ADC kernels to
// the oracle's bits.
func TestDistTableAndADCMatchOracle(t *testing.T) {
	data := GenClustered(400, 12, 4, 0.6, 3)
	pq, err := TrainPQ(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := refTrainPQ(data, 4, 3)
	for _, q := range data[:20] {
		table, err := pq.DistTable(q)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.distTable(q)
		for s := range want {
			if !sameFloats(table[s], want[s]) {
				t.Fatalf("table row %d differs", s)
			}
		}
		code, err := pq.Encode(data[7])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pq.ADC(table, code), ref.adc(want, ref.encode(data[7])); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("ADC = %v, oracle %v", got, want)
		}
	}
}

func writeFloats(h hash.Hash, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}

func writeInt(h hash.Hash, x int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}

func writePQ(h hash.Hash, p *PQ) {
	writeInt(h, p.dim)
	writeInt(h, p.m)
	for s := 0; s < p.m; s++ {
		writeFloats(h, centroidMajor(p.book(s), pqCentroids, p.subDim))
	}
}

func hashKMeans(t *testing.T, data [][]float32, k, iters int, seed int64) string {
	cents, err := KMeans(data, k, iters, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range cents {
		writeFloats(h, c)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashTrainPQ(t *testing.T, data [][]float32, m int, seed int64) string {
	pq, err := TrainPQ(data, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writePQ(h, pq)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashBuild digests an index in the canonical serialisation the golden
// hashes were captured with: dim, count, centroids and codebooks centroid by
// centroid, then per cell its length, IDs and codes.
func hashBuild(t *testing.T, data [][]float32, nlist, m int, seed int64) string {
	ix, err := BuildIVFPQ(data, nlist, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeInt(h, ix.dim)
	writeInt(h, ix.Len())
	writeFloats(h, centroidMajor(ix.centroids, ix.nlist, ix.dim))
	writePQ(h, ix.pq)
	for c := 0; c < ix.nlist; c++ {
		lo, hi := ix.listOff[c], ix.listOff[c+1]
		writeInt(h, hi-lo)
		for _, id := range ix.ids[lo:hi] {
			writeInt(h, id)
		}
		h.Write(ix.codes[lo*ix.pq.m : hi*ix.pq.m])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildGoldenAcrossGOMAXPROCS pins KMeans, TrainPQ and BuildIVFPQ to
// SHA-256 digests captured from the serial slice-of-slices implementation
// (commit f964682) and requires them under GOMAXPROCS 1, 2 and 8: the
// parallel build is byte-deterministic. The datasets cover 2- and 4-float
// subspaces, fewer than 256 training points (padded codebooks), and heavy
// duplication (the k-means++ zero-total and empty-cluster re-seed paths).
// The benchmark-shape row (5,000 x 32, nlist 64, m 16: 256 centroids per
// 2-float subspace) was captured from the full-scan assignment (commit
// a62b66c) before the pruned nearest-centroid search replaced it.
func TestBuildGoldenAcrossGOMAXPROCS(t *testing.T) {
	a := GenClustered(2000, 16, 8, 1.0, 5)
	bench := GenClustered(5000, 32, 8, 1.5, 3)
	b := GenClustered(300, 12, 4, 0.5, 21)
	c := GenUniform(100, 8, 7)
	c = append(c, c[:20]...)
	var e [][]float32
	for r, base := 0, GenUniform(50, 6, 31); r < 6; r++ {
		e = append(e, base...)
	}
	cases := []struct {
		name, want string
		hash       func() string
	}{
		{"KMeans/clustered", "4cf00e3d1062e3f6d20392bd823c99bc96c08e3a64a1bc2548693d31a6ee7281",
			func() string { return hashKMeans(t, a, 32, 12, 9) }},
		{"KMeans/duplicates", "6a01c92f15a5c96425730628afd01c6eaf3a355d735a35aea0c07d753833c9c6",
			func() string { return hashKMeans(t, e, 64, 12, 13) }},
		{"TrainPQ/clustered", "b69a2eaa3d25448ff4ae712c16f10de5242ef80037a620c7fe73b26f968726af",
			func() string { return hashTrainPQ(t, a, 8, 10) }},
		{"BuildIVFPQ/clustered", "5b74a23fb6076cbee6da745e59f38572ee0f320c8c828c7475be8a39a92d6936",
			func() string { return hashBuild(t, a, 32, 8, 9) }},
		{"BuildIVFPQ/subdim4", "863b85f54b5264f7e261e28ad111a1a0d4156346da4fc41a598efeb6f652f0b7",
			func() string { return hashBuild(t, b, 16, 3, 2) }},
		{"BuildIVFPQ/padded-codebooks", "cbc57c1d4877c421e1ca9e09a93dc689f571bddf35ef019d0f8ac22f44509447",
			func() string { return hashBuild(t, c, 8, 4, 4) }},
		{"BuildIVFPQ/duplicates", "e8e1cd1a8c545c408e6ca2e72bb1a7f7e7b4caea60c2a6cb1acb8351f694f400",
			func() string { return hashBuild(t, e, 64, 3, 13) }},
		{"BuildIVFPQ/benchmark-shape", "f579d3b506d3b2bb16eb98e560a1d8f3963d24a6a886345dcc78ed7bf4fd3354",
			func() string { return hashBuild(t, bench, 64, 16, 3) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			if got := tc.hash(); got != tc.want {
				t.Errorf("GOMAXPROCS=%d %s: sha256 %s, want %s", procs, tc.name, got, tc.want)
			}
		}
	}
}

// TestKMeansMatchesOracle requires KMeans, TrainPQ and BuildIVFPQ — whose
// Lloyd passes search a point only where its carried bounds cannot prove
// its assignment, and whose last pass files and encodes the vectors — to
// equal the oracle's full-scan refKMeans, refTrainPQ and refBuildIVFPQ bit
// for bit. The sets are built against the bounds' rules: integer grids
// (exact ties, points equidistant from two centroids), heavy duplication
// (the k-means++ zero-total draw and the empty-cluster re-seed), huge
// finite coordinates (squared distances that overflow to +Inf), k = 1 and
// k >= n, in dimensions 1 to 128. The "draw" rows pin sample, the k-means++
// draw, to the serial scan it replaces, at and beside every prefix-sum
// boundary.
func TestKMeansMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	gen := func(n, dim int, coord func() float32) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = make([]float32, dim)
			for d := range out[i] {
				out[i][d] = coord()
			}
		}
		return out
	}
	grid := func() float32 { return float32(rng.Intn(7) - 3) }
	huge := func() float32 {
		switch rng.Intn(3) {
		case 0:
			return float32(rng.NormFloat64())
		case 1:
			return float32(rng.NormFloat64() * 1e20)
		}
		return float32(rng.Intn(2)*2-1) * 3e38
	}
	for _, dim := range []int{1, 2, 3, 4, 8, 32, 128} {
		n := 40 + rng.Intn(300)
		dups := gen(1+rng.Intn(8), dim, grid) // a few distinct points, repeated
		for len(dups) < n {
			dups = append(dups, dups[rng.Intn(len(dups))])
		}
		sets := []struct {
			name string
			data [][]float32
		}{
			{"clustered", GenClustered(n, dim, 1+rng.Intn(6), 0.3+rng.Float64(), rng.Int63())},
			{"grid", gen(n, dim, grid)},
			{"duplicates", dups},
			{"overflow", gen(n, dim, huge)},
		}
		sub := []int{1, 2, 4}[rng.Intn(3)]
		if dim%sub != 0 {
			sub = 1
		}
		if dim == 128 {
			sub = 8
		}
		for _, set := range sets {
			data, seed := set.data, rng.Int63()
			for _, k := range []int{1, 2 + rng.Intn(40), n, n + 5} {
				iters := rng.Intn(13)
				where := fmt.Sprintf("%s dim=%d n=%d k=%d iters=%d", set.name, dim, n, k, iters)
				got, err := KMeans(data, k, iters, seed)
				if err != nil {
					t.Fatal(err)
				}
				for c, want := range refKMeans(data, k, iters, seed) {
					if !sameFloats(got[c], want) {
						t.Fatalf("KMeans %s: centroid %d = %v, oracle %v", where, c, got[c], want)
					}
				}
			}
			m := dim / sub
			pq, err := TrainPQ(data, m, seed)
			if err != nil {
				t.Fatal(err)
			}
			for s, book := range refTrainPQ(data, m, seed).codebooks {
				entries := centroidMajor(pq.book(s), pqCentroids, sub)
				for c, want := range book {
					if !sameFloats(entries[c*sub:(c+1)*sub], want) {
						t.Fatalf("TrainPQ %s dim=%d n=%d m=%d: codebook %d entry %d differs", set.name, dim, n, m, s, c)
					}
				}
			}
			for _, nlist := range []int{1, 1 + rng.Intn(24), n + 3} {
				ix, err := BuildIVFPQ(data, nlist, m, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameIndex(ix, refBuildIVFPQ(data, nlist, m, seed)); err != nil {
					t.Fatalf("BuildIVFPQ %s dim=%d n=%d nlist=%d m=%d: %v", set.name, dim, n, nlist, m, err)
				}
			}
		}
	}

	t.Run("draw", func(t *testing.T) {
		scan := func(d2 []float64, r float64) int {
			for i, w := range d2 {
				if r -= w; r <= 0 {
					return i
				}
			}
			return 0
		}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(60)
			d2, cum := make([]float64, n), make([]float64, n)
			var total float64
			for i := range d2 {
				switch rng.Intn(5) {
				case 0:
				case 1:
					d2[i] = float64(rng.Intn(4))
				case 2:
					d2[i] = float64(float32(rng.ExpFloat64() * 1e-30))
				default:
					d2[i] = float64(float32(rng.ExpFloat64()))
				}
				if trial%50 == 0 && rng.Intn(n) == 0 {
					d2[i] = math.Inf(1)
				}
				total += d2[i]
				cum[i] = total
			}
			draws := []float64{0, total, rng.Float64() * total}
			for _, c := range cum {
				draws = append(draws, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
			}
			for _, r := range draws {
				if got, want := sample(d2, cum, r), scan(d2, r); got != want {
					t.Fatalf("trial %d: sample(%v, r=%v) = %d, serial scan %d", trial, d2, r, got, want)
				}
			}
		}
	})
}

// TestBuildDistanceBudget pins the point–centroid distances the bounded
// Lloyd passes evaluate building the benchmark-shape index (5,000 x 32,
// nlist 64, m 16), under GOMAXPROCS 1, 2 and 8: the coarse quantizer's and
// the 16 PQ subspaces' in BuildIVFPQ, which searches no vector after
// training, and in KMeans and TrainPQ, which return only centroids and so
// skip the last assignment. The build assigns every vector 13 times to a
// coarse cell and 11 times to a code in each subspace, which by full scan
// would cost 4,160,000 and 225,280,000 distances. The first assignment
// comes from k-means++ seeding, which evaluates a fixed k·n per quantizer.
func TestBuildDistanceBudget(t *testing.T) {
	const coarseWant, pqWant = 1062703, 7952178      // in the build
	const kmeansWant, trainPQWant = 1009330, 7579254 // centroids only
	data := GenClustered(5000, 32, 8, 1.5, 3)
	count := func(build func() error) int64 {
		distanceEvals.Store(0)
		if err := build(); err != nil {
			t.Fatal(err)
		}
		return distanceEvals.Load()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		coarse := count(func() error { _, err := KMeans(data, 64, 12, 3); return err })
		pq := count(func() error { _, err := TrainPQ(data, 16, 4); return err })
		build := count(func() error { _, err := BuildIVFPQ(data, 64, 16, 3); return err })
		if coarse != kmeansWant || pq != trainPQWant || build != coarseWant+pqWant {
			t.Errorf("GOMAXPROCS=%d: KMeans %d, TrainPQ %d, build %d distances; want %d, %d, %d",
				procs, coarse, pq, build, kmeansWant, trainPQWant, coarseWant+pqWant)
		}
	}
}

// TestSearchSteadyStateAllocs pins the kernel's allocation contract: once
// the pooled scratch is warm, a search allocates only the slice it returns.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	data := GenClustered(2000, 16, 8, 0.8, 5)
	ix, err := BuildIVFPQ(data, 32, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(ix, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(16)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	q := data[17]
	var info ShardQuery
	for name, search := range map[string]func() ([]Result, error){
		"IVFPQ.Search":         func() ([]Result, error) { return ix.Search(q, 10, 8) },
		"Sharded.Search":       func() ([]Result, error) { return sh.Search(q, 10, 8, 0, nil) },
		"Sharded.Search(info)": func() ([]Result, error) { return sh.Search(q, 10, 8, 2, &info) },
		"FlatIndex.Search":     func() ([]Result, error) { return flat.Search(q, 10) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := search(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %v allocations per query, want <= 1", name, allocs)
		}
	}
}

// TestDuplicateCentroidsProbeDeterministically builds an index whose coarse
// quantizer has exact duplicate centroids (nlist > distinct points), so
// many cells tie on distance: the probe order is defined as (dist, cell),
// and the single index and the full-fanout sharded index must agree
// bit-for-bit at every nprobe.
func TestDuplicateCentroidsProbeDeterministically(t *testing.T) {
	base := GenUniform(12, 8, 5)
	var data [][]float32
	for r := 0; r < 10; r++ {
		data = append(data, base...)
	}
	ix, err := BuildIVFPQ(data, 120, 4, 9) // nlist == len(data): every point a centroid, 10 copies each
	if err != nil {
		t.Fatal(err)
	}
	ref := refBuildIVFPQ(data, 120, 4, 9)
	sh, err := NewSharded(ix, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range base {
		ranked := ix.probe(new(scratch), q, 120)
		for i := 1; i < len(ranked); i++ {
			if !less(ranked[i-1], ranked[i]) {
				t.Fatalf("probe order not ascending in (dist, cell) at rank %d: %v then %v", i, ranked[i-1], ranked[i])
			}
		}
		for _, nprobe := range []int{1, 3, 10, 11, 57, 120} {
			single, err := ix.Search(q, 15, nprobe)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sh.Search(q, 15, nprobe, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.search(q, 15, nprobe); !sameResults(single, want) || !sameResults(full, want) {
				t.Fatalf("nprobe %d: single %v, sharded %v, oracle %v", nprobe, single, full, want)
			}
		}
	}
}

// TestFlatAddCopies pins that the exact index owns its vectors: mutating a
// slice after Add must not move the ground truth.
func TestFlatAddCopies(t *testing.T) {
	data := GenUniform(50, 4, 9)
	flat := NewFlat(4)
	if err := flat.Add(data...); err != nil {
		t.Fatal(err)
	}
	q := append([]float32(nil), data[3]...)
	before, err := flat.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data {
		for d := range v {
			v[d] = 1e6
		}
	}
	after, err := flat.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(before, after) || before[0].ID != 3 || before[0].Dist != 0 {
		t.Fatalf("results moved with the caller's slices: before %v, after %v", before, after)
	}
}

// TestShardQueryReusesConsulted pins that the info path writes the scatter
// plan into the caller's Consulted storage.
func TestShardQueryReusesConsulted(t *testing.T) {
	sh, _, _, queries := buildShardedFixture(t, 4, 2)
	info := ShardQuery{Consulted: make([]ShardPick, 0, 4)}
	backing := &info.Consulted[:1][0]
	if _, err := sh.Search(queries[0], 10, 16, 0, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Consulted) == 0 || &info.Consulted[0] != backing {
		t.Fatalf("Consulted (len %d) was reallocated instead of reused", len(info.Consulted))
	}
}

// FuzzShardedHealthMask drives the scatter-gather with arbitrary replica
// health masks, fanouts and probe widths: it must never panic, and whatever
// survives is a subset of the full-fanout, all-healthy candidate set, with
// distances unchanged.
func FuzzShardedHealthMask(f *testing.F) {
	data := GenClustered(600, 8, 6, 0.7, 11)
	ix, err := BuildIVFPQ(data, 12, 4, 11)
	if err != nil {
		f.Fatal(err)
	}
	const shards, replicas = 4, 2
	f.Add(uint16(0), 0, 4, 5, int64(1))
	f.Add(uint16(0xff), 1, 12, 10, int64(2))
	f.Add(uint16(0x0f), -3, 1, 600, int64(3))
	f.Add(uint16(0xa5), 9, 40, 1, int64(4))
	f.Fuzz(func(t *testing.T, mask uint16, fanout, nprobe, k int, qseed int64) {
		sh, err := NewSharded(ix, shards, replicas)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards*replicas; i++ {
			if err := sh.SetReplicaHealth(i/replicas, i%replicas, mask&(1<<i) == 0); err != nil {
				t.Fatal(err)
			}
		}
		q := GenUniform(1, 8, qseed)[0]
		for d := range q {
			q[d] *= 10
		}
		var info ShardQuery
		got, err := sh.Search(q, k, nprobe, fanout, &info)
		if k < 1 || nprobe < 1 {
			if err == nil {
				t.Fatalf("k=%d nprobe=%d accepted", k, nprobe)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Consulted)+info.Lost+info.Excluded > shards {
			t.Fatalf("scatter plan %+v names more than %d shards", info, shards)
		}
		all, err := ix.Search(q, ix.Len(), nprobe)
		if err != nil {
			t.Fatal(err)
		}
		dist := make(map[int]float32, len(all))
		for _, r := range all {
			dist[r.ID] = r.Dist
		}
		for i, r := range got {
			if d, ok := dist[r.ID]; !ok || math.Float32bits(d) != math.Float32bits(r.Dist) {
				t.Fatalf("result %v is not a full-fanout candidate", r)
			}
			if i > 0 && !less(got[i-1], r) {
				t.Fatalf("results out of order at %d: %v", i, got)
			}
		}
	})
}
