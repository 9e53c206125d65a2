package vectordb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// KMeans clusters data into k centroids with Lloyd's algorithm seeded by
// k-means++ initialization. Every assignment is the one a full scan gives
// (the first smallest squared distance): seeding leaves each point's nearest
// seed, and each later pass searches a point again only where its
// triangle-inequality bounds, carried across passes, cannot prove that its
// assignment stands. It is deterministic for a given seed — and for any
// GOMAXPROCS: only the per-point assignment steps run in parallel, every
// float accumulation across points stays serial in index order. iters
// bounds the refinement passes; the loop exits early on convergence. The
// returned rows are views over one contiguous backing array.
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
	cents, _ := new(lloyd).kmeans(data, 0, dim, k, iters, seed, runtime.GOMAXPROCS(0), false)
	return rowViews(cents, k, dim), nil
}

// lloyd is the working memory of k-means: the points copied contiguously,
// the centroids, the k-means++ weights, the mean sums and the bounds. A
// worker that trains several quantizers in turn reuses one.
type lloyd struct {
	xs, cents, prev []float32
	d2, cum, sums   []float64
	near, counts    []int
	bounds
}

// kmeans clusters the sub-vectors data[i][off:off+dim] into k centroids,
// returned flat (k*dim), using up to workers goroutines. With assign it
// also returns each point's nearest final centroid: after the last mean
// update one more bounded pass assigns every point exactly, so a caller
// needs no search of its own. Without it that pass, which moves no
// centroid, is skipped and the assignment is nil. Both results live in l
// and hold until its next use. The first assignment is seeding's, which
// already knows each point's nearest seed.
func (l *lloyd) kmeans(data [][]float32, off, dim, k, iters int, seed int64, workers int, assign bool) ([]float32, []int) {
	n := len(data)
	l.xs = grow(l.xs, n*dim)
	xs := l.xs
	for i, v := range data {
		copy(xs[i*dim:(i+1)*dim], v[off:off+dim])
	}
	l.cents = grow(l.cents, k*dim)
	cents := l.cents
	var rng *rand.Rand
	seeded := k < n
	if !seeded {
		// Degenerate but legal: every point its own centroid, padded by
		// repeats; one pass assigns the points.
		for c := 0; c < k; c++ {
			copy(cents[c*dim:(c+1)*dim], xs[(c%n)*dim:])
		}
		iters = 0
	} else {
		rng = rand.New(rand.NewSource(seed))
		l.seed(n, dim, k, rng)
	}

	b := &l.bounds
	b.reset(xs, cents, k, dim)
	if seeded {
		// Seeding found every point's nearest seed: the first pass is done.
		for i, c := range l.near {
			b.assign[i], b.upper[i] = c, b.up(float32(l.d2[i]))
		}
	}
	l.prev, l.sums, l.counts = grow(l.prev, k*dim), grow(l.sums, k*dim), grow(l.counts, k)
	prev, sums, counts := l.prev, l.sums, l.counts
	for it := 0; ; it++ {
		if it >= iters && !assign {
			return cents, nil
		}
		changed := 0
		if it > 0 || !seeded {
			changed = b.pass(xs, workers)
		}
		if it >= iters || it > 0 && changed == 0 {
			if !assign {
				return cents, nil
			}
			return cents, b.assign
		}
		// Recompute means, accumulating serially in point order.
		copy(prev, cents)
		clear(sums)
		clear(counts)
		for i, c := range b.assign {
			counts[c]++
			sum := sums[c*dim : (c+1)*dim]
			for d, x := range xs[i*dim : (i+1)*dim] {
				sum[d] += float64(x)
			}
		}
		for c := 0; c < k; c++ {
			cent := cents[c*dim : (c+1)*dim]
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random point.
				copy(cent, xs[rng.Intn(n)*dim:])
				continue
			}
			for d := range cent {
				cent[d] = float32(sums[c*dim+d] / float64(counts[c]))
			}
		}
		b.moved(prev)
	}
}

// seed fills l.cents with k initial centroids picked by k-means++ (D^2
// weighting) from the n points in l.xs. Each round makes one serial pass in
// point order that updates every point's D^2 (four points' distance sums in
// lockstep, each in SquaredL2's order) and adds it to the running weight
// total, keeping the prefix sums for sample. One last update with the last
// seed leaves each point's nearest seed in l.near — the first of equals, as
// a full scan picks — and its squared distance in l.d2.
func (l *lloyd) seed(n, dim, k int, rng *rand.Rand) {
	xs, cents := l.xs, l.cents
	copy(cents[:dim], xs[rng.Intn(n)*dim:])
	l.d2, l.cum, l.near = grow(l.d2, n), grow(l.cum, n), grow(l.near, n)
	d2, cum, near := l.d2, l.cum, l.near
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	clear(near)
	for c := 1; c <= k; c++ {
		last := cents[(c-1)*dim : c*dim]
		var total float64
		i := 0
		for ; i+4 <= n; i += 4 {
			v := xs[i*dim : (i+4)*dim]
			v0, v1, v2, v3 := v[:dim], v[dim:2*dim], v[2*dim:3*dim], v[3*dim:]
			var s0, s1, s2, s3 float32
			for j, y := range last {
				e0, e1, e2, e3 := y-v0[j], y-v1[j], y-v2[j], y-v3[j]
				s0 += e0 * e0
				s1 += e1 * e1
				s2 += e2 * e2
				s3 += e3 * e3
			}
			for j, s := range [4]float32{s0, s1, s2, s3} {
				if w := float64(s); w < d2[i+j] {
					d2[i+j], near[i+j] = w, c-1
				}
				total += d2[i+j]
				cum[i+j] = total
			}
		}
		for ; i < n; i++ {
			if w := float64(SquaredL2(last, xs[i*dim:(i+1)*dim])); w < d2[i] {
				d2[i], near[i] = w, c-1
			}
			total += d2[i]
			cum[i] = total
		}
		if c == k {
			return
		}
		idx := 0
		if total == 0 {
			// All remaining points coincide with centroids.
			idx = rng.Intn(n)
		} else {
			idx = sample(d2, cum, rng.Float64()*total)
		}
		copy(cents[c*dim:(c+1)*dim], xs[idx*dim:])
	}
}

// sample returns the first i at which subtracting d2[0], d2[1], ... from r
// in turn leaves r <= 0, or 0 if none does: the serial D^2 draw. cum holds
// d2's prefix sums. Both running sums stay within n·2⁻⁵³·total of the real
// ones, so where the prefix sums clear r by four times that a binary search
// finds the answer; only a draw that close to a boundary runs the scan.
func sample(d2, cum []float64, r float64) int {
	n := len(d2)
	if total := cum[n-1]; !math.IsInf(total, 1) {
		m := 4 * float64(n) * 0x1p-53 * total
		j := sort.SearchFloat64s(cum, r-m)
		if j == n {
			return 0
		}
		if cum[j] >= r+m {
			return j
		}
	}
	for i, w := range d2 {
		if r -= w; r <= 0 {
			return i
		}
	}
	return 0
}

// distanceEvals counts the point–centroid squared distances the Lloyd
// passes evaluate, for the tests that pin the build's work.
var distanceEvals atomic.Int64

// bounds carries each point's assignment across Lloyd passes with
// Yinyang-style triangle-inequality bounds. The centroids are split once,
// at the seeds, into t = ⌊√k⌋ groups: contiguous slices of the seeds'
// keyOrder. Point i keeps an upper bound upper[i] on its distance to its
// centroid and, per group g, a lower bound lower[i*t+g] on its distance to
// every other centroid of g. When the centroids move, upper grows by the
// assigned centroid's drift and each lower bound shrinks by its group's
// largest drift. Bounds are Euclidean distances in float64, and exact ones
// are widened so that they hold for the real distances however the float32
// sums round (see up and down).
type bounds struct {
	k, dim, t int
	ord       keyOrder  // the seeds' order; ord.ids is order
	key       int       // the seeds' keyOrder key coordinate
	cents     []float32 // k*dim centroid-major; kmeans updates it in place
	order     []int     // centroids in group order: group g is order[start[g]:start[g+1]]
	start     []int     // t+1
	group     []int     // each centroid's group
	groupT    []float32 // group g's centroids dimension-major at groupT[start[g]*dim:start[g+1]*dim]
	assign    []int
	upper     []float64 // n
	lower     []float64 // n*t
	drift     []float64 // each centroid's widened drift in the last update
	gdrift    []float64 // each group's largest drift
	keyLo     []float64 // each group's smallest key coordinate
	keyHi     []float64 // each group's largest key coordinate
	// rel and slack widen exact distances into bounds, and a bound gap
	// must exceed them to prove an assignment.
	rel, slack float64
}

// reset groups the seeds in cents and bounds every point of xs against
// them without evaluating a distance: a point starts at a centroid of the
// group whose key range lies nearest its key coordinate, with upper bound
// +Inf, and its lower bound for each group is its distance to that group's
// key range (interval).
func (b *bounds) reset(xs, cents []float32, k, dim int) {
	n, t := len(xs)/dim, max(1, int(math.Sqrt(float64(k))))
	b.ord.reset(cents, k, dim)
	b.k, b.dim, b.t, b.key, b.cents, b.order = k, dim, t, b.ord.key, cents, b.ord.ids
	b.start, b.group, b.groupT = grow(b.start, t+1), grow(b.group, k), grow(b.groupT, k*dim)
	b.assign, b.upper, b.lower = grow(b.assign, n), grow(b.upper, n), grow(b.lower, n*t)
	b.drift, b.gdrift = grow(b.drift, k), grow(b.gdrift, t)
	b.keyLo, b.keyHi = grow(b.keyLo, t), grow(b.keyHi, t)
	clear(b.drift)
	clear(b.gdrift)
	// A float32 sum of dim squared differences is within a relative
	// (dim+2)·2⁻²⁴ of the real squared distance, plus dim·2⁻¹⁵⁰ where it
	// underflows; rel takes four times that, slack far more than the
	// underflow's root.
	b.rel, b.slack = 1+4*float64(dim+2)*0x1p-24, math.Sqrt(float64(dim))*0x1p-70
	for g := 0; g <= t; g++ {
		b.start[g] = g * k / t
	}
	for g := 0; g < t; g++ {
		ids := b.order[b.start[g]:b.start[g+1]]
		slices.Sort(ids)
		for _, c := range ids {
			b.group[c] = g
		}
	}
	b.fill()
	for i := range b.assign {
		x := xs[i*dim+b.key]
		lower, nearest := b.lower[i*t:(i+1)*t], math.Inf(1)
		for g := range lower {
			lower[g] = b.interval(g, x)
			if lower[g] < nearest {
				nearest, b.assign[i] = lower[g], b.order[b.start[g]]
			}
		}
		b.upper[i] = math.Inf(1)
	}
}

// up returns an upper bound on the real distance whose float32 squared
// sum is d; +Inf stays +Inf.
func (b *bounds) up(d float32) float64 {
	return math.Sqrt(float64(d))*b.rel + b.slack
}

// down returns a lower bound on the real distance whose float32 squared
// sum is d. A sum that overflowed to +Inf bounds nothing, so it gives 0 and
// the group is searched again on every pass.
func (b *bounds) down(d float32) float64 {
	if math.IsInf(float64(d), 1) {
		return 0
	}
	return math.Sqrt(float64(d))*(2-b.rel) - b.slack
}

// fill copies each group's centroids into groupT, dimension-major, and
// records the group's key range.
func (b *bounds) fill() {
	dim := b.dim
	for g := 0; g < b.t; g++ {
		lo, hi := b.start[g], b.start[g+1]
		blk := b.groupT[lo*dim : hi*dim]
		b.keyLo[g], b.keyHi[g] = math.Inf(1), math.Inf(-1)
		for j, c := range b.order[lo:hi] {
			for d, x := range b.cents[c*dim : (c+1)*dim] {
				blk[d*(hi-lo)+j] = x
			}
			key := float64(b.cents[c*dim+b.key])
			b.keyLo[g], b.keyHi[g] = min(b.keyLo[g], key), max(b.keyHi[g], key)
		}
	}
}

// interval returns a lower bound on the distance from a point whose key
// coordinate is x to every centroid of group g: the distance from x to the
// group's key range, less a rounding allowance.
func (b *bounds) interval(g int, x float32) float64 {
	var e float64
	if xk := float64(x); xk < b.keyLo[g] {
		e = b.keyLo[g] - xk
	} else if xk > b.keyHi[g] {
		e = xk - b.keyHi[g]
	}
	return e * (2 - b.rel)
}

// moved records how far each centroid moved from prev to b.cents, widened
// like the bounds, and refreshes groupT and the key ranges.
func (b *bounds) moved(prev []float32) {
	dim := b.dim
	clear(b.gdrift)
	for c := 0; c < b.k; c++ {
		var s float64
		for d, x := range b.cents[c*dim : (c+1)*dim] {
			e := float64(x) - float64(prev[c*dim+d])
			s += e * e
		}
		b.drift[c] = math.Sqrt(s) * b.rel
		b.gdrift[b.group[c]] = max(b.gdrift[b.group[c]], b.drift[c])
	}
	b.fill()
}

// pass assigns every point of xs to its nearest centroid, exactly as a full
// scan would, and returns how many points changed centroid. A point's
// bounds first take the last update's drifts. If every group's lower bound
// exceeds the upper bound, widened by rel and slack, every other centroid's
// float32 distance is strictly larger than its own and the assignment
// stands; otherwise search decides.
func (b *bounds) pass(xs []float32, workers int) int {
	var changed, evals atomic.Int64
	parallelFor(len(b.assign), pointGrain, workers, func(lo, hi int) {
		d := make([]float32, b.k)
		t, dim, rel, slack := b.t, b.dim, b.rel, b.slack
		assign, upper, drift, gdrift := b.assign, b.upper, b.drift, b.gdrift[:t]
		ch, ev := 0, 0
		for i := lo; i < hi; i++ {
			lower := b.lower[i*t:][:t]
			a, minL := assign[i], math.Inf(1)
			for g, l := range lower {
				l -= gdrift[g]
				lower[g] = l
				if l < minL {
					minL = l
				}
			}
			u := upper[i] + drift[a]
			if minL > u*rel+slack {
				upper[i] = u
				continue
			}
			ev += b.search(i, xs[i*dim:(i+1)*dim], minL, d)
			if assign[i] != a {
				ch++
			}
		}
		changed.Add(int64(ch))
		evals.Add(int64(ev))
	})
	distanceEvals.Add(evals.Load())
	return int(changed.Load())
}

// search re-assigns point i (coordinates x), whose drifted lower bounds
// failed to prove its assignment (minL is the smallest), and returns how
// many distances it evaluated; d (k floats) is scratch. The upper bound is
// tightened to the exact distance and the test repeated. Failing that, the
// point's own group and then the others are searched with sqDists, except
// a group whose lower bound, or distance to its key range (interval), passes
// the test against the best distance so far. The first smallest distance
// over the searched groups and the old centroid wins — the centroid a full
// scan picks, since every centroid not searched is strictly farther than
// one that was. The searched groups' lower bounds become exact again,
// excluding the winner.
func (b *bounds) search(i int, x []float32, minL float64, d []float32) int {
	dim, a := b.dim, b.assign[i]
	lower := b.lower[i*b.t : (i+1)*b.t]
	da := SquaredL2(x, b.cents[a*dim:(a+1)*dim])
	evals, thr := 1, b.up(da)*b.rel+b.slack
	if minL > thr {
		b.upper[i] = b.up(da)
		return evals
	}
	best, bestD, ga := a, da, b.group[a]
	ownSearched, won, wonM2 := false, -1, float32(0)
	for j := 0; j < b.t; j++ {
		g := ga // the own group first, then the others in order
		if j > 0 {
			if g = j - 1; g >= ga {
				g++
			}
		}
		if lower[g] > thr {
			continue
		}
		if iv := b.interval(g, x[b.key]); iv > thr {
			lower[g] = iv
			continue
		}
		lo, hi := b.start[g], b.start[g+1]
		dg := d[lo:hi]
		sqDists(dg, x, b.groupT[lo*dim:hi*dim])
		evals += hi - lo
		ownSearched = ownSearched || g == ga
		// The group's smallest distance m1, first in index order as the
		// group's centroids ascend by index, and its second smallest m2.
		// Non-negative floats order as their bits do, so the minima need
		// no float compares.
		m1, m2, j1 := uint32(0x7f800000), uint32(0x7f800000), 0 // +Inf
		for j, dc := range dg {
			u := math.Float32bits(dc)
			m2 = min(m2, max(m1, u))
			if u < m1 {
				m1, j1 = u, j
			}
		}
		m := math.Float32frombits(m1)
		lower[g] = b.down(m)
		if c := b.order[lo+j1]; m < bestD || m == bestD && c <= best {
			// c is the winner so far (c == best: the old centroid
			// leads its own group); the group's bound must exclude it.
			best, bestD, won, wonM2 = c, m, g, math.Float32frombits(m2)
			thr = b.up(bestD)*b.rel + b.slack
		}
	}
	if won >= 0 {
		lower[won] = b.down(wonM2)
	}
	if best != a && !ownSearched {
		// The old centroid's group was not searched; it now holds a
		// centroid other than the point's own.
		lower[ga] = min(lower[ga], b.down(da))
	}
	b.assign[i], b.upper[i] = best, b.up(bestD)
	return evals
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

// sqDists8, when set, is sqDists' vector body for the first len(dst)
// centroids, a multiple of 8, of a table with row stride k. It is set at
// package init from CPUID: sqDists8AVX2 where the host has AVX2.
var sqDists8 func(dst, v, centsT []float32, k int)

// sqDists sets dst[c] to the squared distance from v to centroid c, for the
// len(dst) centroids stored dimension-major in centsT. Each dst[c] starts at
// 0 and accumulates its terms in dimension order — the same float32 sum
// SquaredL2 computes. The vector body, if any, takes blocks of 8 centroids,
// a lane each, and rounds every term as the portable loop does; the loop
// (one streaming pass per dimension) takes the k mod 8 tail, or all of dst.
func sqDists(dst, v, centsT []float32) {
	k, n := len(dst), 0
	centsT = centsT[:len(v)*k] // the vector body reads all of it unchecked
	if sqDists8 != nil && len(v) > 0 {
		n = k &^ 7
		sqDists8(dst[:n], v, centsT, k)
	}
	tail := dst[n:]
	clear(tail)
	for d, x := range v {
		col := centsT[d*k+n:][:len(tail)]
		for c := range tail {
			e := x - col[c]
			tail[c] += e * e
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
