package vectordb

import (
	"math"
	"math/rand"
	"testing"
)

// kernelInputs draws a query of dim floats and k centroids stored
// dimension-major (k*dim floats) of one input kind.
var kernelInputs = []struct {
	name string
	draw func(rng *rand.Rand) float32
}{
	{"random", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 3) }},
	// Few distinct values: equal distances and repeated centroids.
	{"tied", func(rng *rand.Rand) float32 { return float32(rng.Intn(3) - 1) }},
	// Subnormal components, and differences whose squares are subnormal or
	// underflow to zero.
	{"subnormal", func(rng *rand.Rand) float32 {
		if rng.Intn(2) == 0 {
			return float32(rng.NormFloat64() * 1e-39)
		}
		return float32(rng.NormFloat64() * 1e-20)
	}},
	{"signed-zero", func(rng *rand.Rand) float32 {
		return [...]float32{0, float32(math.Copysign(0, -1)), 1e-3, -1e-3}[rng.Intn(4)]
	}},
	// Squares, differences and sums that overflow to +Inf.
	{"overflow", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 1e38) }},
}

var (
	kernelKs   = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 256}
	kernelDims = []int{0, 1, 2, 3, 8, 31, 32, 64}
)

// forEachKernelInput calls f with every (kind, k, dim) input of the kernel
// table: a query v and k centroids centsT stored dimension-major.
func forEachKernelInput(f func(kind string, k, dim int, v, centsT []float32)) {
	rng := rand.New(rand.NewSource(50))
	for _, in := range kernelInputs {
		for _, k := range kernelKs {
			for _, dim := range kernelDims {
				v := make([]float32, dim)
				centsT := make([]float32, k*dim)
				for i := range v {
					v[i] = in.draw(rng)
				}
				for i := range centsT {
					centsT[i] = in.draw(rng)
				}
				f(in.name, k, dim, v, centsT)
			}
		}
	}
}

// TestSqDistsKernelsBitIdentical compares each sqDists body with its
// reference bit for bit: the portable loop with SquaredL2 on every
// centroid, and the vector body (8-centroid blocks, portable tail) with the
// portable loop.
func TestSqDistsKernelsBitIdentical(t *testing.T) {
	vector := sqDists8
	portable := func(dst, v, centsT []float32) {
		sqDists8 = nil
		defer func() { sqDists8 = vector }()
		sqDists(dst, v, centsT)
	}
	t.Run("portable", func(t *testing.T) {
		forEachKernelInput(func(kind string, k, dim int, v, centsT []float32) {
			got := make([]float32, k)
			portable(got, v, centsT)
			cents := centroidMajor(centsT, k, dim)
			for c, d := range got {
				if want := SquaredL2(v, cents[c*dim:(c+1)*dim]); math.Float32bits(d) != math.Float32bits(want) {
					t.Errorf("%s k=%d dim=%d: centroid %d = %v, SquaredL2 %v", kind, k, dim, c, d, want)
				}
			}
		})
	})
	t.Run("avx2", func(t *testing.T) {
		if vector == nil {
			t.Skip("no vector body: the host is not amd64, lacks AVX2, or its OS does not save YMM state")
		}
		forEachKernelInput(func(kind string, k, dim int, v, centsT []float32) {
			got, want := make([]float32, k), make([]float32, k)
			sqDists(got, v, centsT)
			portable(want, v, centsT)
			if !sameFloats(got, want) {
				t.Errorf("%s k=%d dim=%d: AVX2 %v, portable %v", kind, k, dim, got, want)
			}
		})
	})
}

// TestPortableKernelOracles reruns the oracle, golden and budget tests on
// sqDists' portable loop when the host's default is the vector body, so
// both kernels are held to the same bits and counts.
func TestPortableKernelOracles(t *testing.T) {
	if sqDists8 == nil {
		t.Skip("the default kernel is already the portable loop: the tests below ran on it")
	}
	saved := sqDists8
	sqDists8 = nil
	t.Cleanup(func() { sqDists8 = saved })
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"DifferentialAgainstOracle", TestDifferentialAgainstOracle},
		{"NearestCentroidMatchesOracle", TestNearestCentroidMatchesOracle},
		{"DistTableAndADCMatchOracle", TestDistTableAndADCMatchOracle},
		{"BuildGoldenAcrossGOMAXPROCS", TestBuildGoldenAcrossGOMAXPROCS},
		{"KMeansMatchesOracle", TestKMeansMatchesOracle},
		{"BuildDistanceBudget", TestBuildDistanceBudget},
		{"SearchSteadyStateAllocs", TestSearchSteadyStateAllocs},
	} {
		t.Run(tc.name, tc.test)
	}
}
