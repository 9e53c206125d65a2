package vectordb

func init() {
	if cpuHasAVX2() {
		sqDists8 = sqDists8AVX2
	}
}

// sqDists8AVX2 sums each 8-centroid block in one YMM register, a lane per
// centroid: per dimension a broadcast of v[d], then VSUBPS, VMULPS and
// VADDPS, with no fused multiply-add.
//
//go:noescape
func sqDists8AVX2(dst, v, centsT []float32, k int)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuHasAVX2() bool
