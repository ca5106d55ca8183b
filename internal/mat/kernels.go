package mat

// Inner kernels for the matrix products, all built on panel (see the
// package comment for its rounding contract). Every output element takes
// the naive one-add-per-k sequence, zero-skip included, so results are
// byte-identical to the naive kernels on every path, at any blocking and
// any worker count — the determinism contract the parallel row-block
// dispatch and the training pipeline rely on.

// simdLevel names a panel body.
type simdLevel uint8

const (
	simdGeneric simdLevel = iota // pure Go, every GOARCH
	simdAVX                      // amd64, 4 lanes
	simdAVX512                   // amd64, 8 lanes
)

// simd selects the panel body. It is fixed at start-up from CPUID; tests
// lower it to run the narrower bodies on the same inputs.
var simd = detectSIMD()

// panel applies, for every j in [0, len(o)),
//
//	o[j] += Σₖ a[k·as]·b[k·bs+j]   (k ascending over [0, kn))
//
// as one rounded product and one rounded sum per k. With skipZeros, k is
// skipped when a[k·as] is ±0. a must reach index (kn−1)·as and b index
// (kn−1)·bs + len(o) − 1; o must not overlap b.
func panel(o, a []float64, as int, b []float64, bs, kn int, skipZeros bool) {
	n := len(o)
	if n == 0 || kn <= 0 {
		return
	}
	// One bounds check per call stands in for the assembly's unchecked loads.
	_, _ = a[(kn-1)*as], b[(kn-1)*bs+n-1]
	switch simd {
	case simdAVX512:
		panelAVX512(&o[0], &a[0], &b[0], n, kn, as, bs, skipZeros)
	case simdAVX:
		panelAVX(&o[0], &a[0], &b[0], n, kn, as, bs, skipZeros)
	default:
		panelGo(o, a, as, b, bs, kn, skipZeros)
	}
}

// panelGo is the portable body of panel and the reference for the
// assembly ones: a k-outer row update taking four k at a time, so o is
// loaded and stored once per four products. A group holding a zero
// multiplier, when zeros are skipped, and the last kn%4 k go one k at a
// time.
func panelGo(o, a []float64, as int, b []float64, bs, kn int, skipZeros bool) {
	n := len(o)
	k := 0
	for ; k+4 <= kn; k += 4 {
		a0, a1, a2, a3 := a[k*as], a[(k+1)*as], a[(k+2)*as], a[(k+3)*as]
		if skipZeros && (a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0) {
			for kk := k; kk < k+4; kk++ {
				rank1(o, a[kk*as], b[kk*bs:kk*bs+n], true)
			}
			continue
		}
		rank4(o, b[k*bs:], b[(k+1)*bs:], b[(k+2)*bs:], b[(k+3)*bs:], a0, a1, a2, a3)
	}
	for ; k < kn; k++ {
		rank1(o, a[k*as], b[k*bs:k*bs+n], skipZeros)
	}
}

// rank4 applies o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
// for every j in [0, len(o)).
func rank4(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		// Four SEQUENTIAL adds into a local, not a fused four-term sum:
		// each rounds like one k of rank1. The float64 conversions forbid
		// fusing a product and its add into one FMA on architectures whose
		// compiler would.
		v := o[j]
		v += float64(a0 * b0[j])
		v += float64(a1 * b1[j])
		v += float64(a2 * b2[j])
		v += float64(a3 * b3[j])
		o[j] = v
	}
}

// rank1 applies o[j] += av·brow[j], or nothing when skipZeros and av is ±0.
func rank1(o []float64, av float64, brow []float64, skipZeros bool) {
	if skipZeros && av == 0 {
		return
	}
	for j, bv := range brow {
		o[j] += float64(av * bv)
	}
}

// matMulRows computes rows [lo, hi) of out += a × b, one panel per output
// row. With skipZeros, zero multipliers contribute nothing; without it
// every product is added, which is the ascending-k dot product of a × bᵀ
// when b holds the transpose.
func matMulRows(out, a, b *Matrix, lo, hi int, skipZeros bool) {
	ac, bc := a.cols, b.cols
	for i := lo; i < hi; i++ {
		panel(out.data[i*bc:(i+1)*bc], a.data[i*ac:(i+1)*ac], 1, b.data, bc, ac, skipZeros)
	}
}

// tMatMulAccum accumulates out += aᵀ × b, one panel per output row i with
// column i of a (stride a.cols) as the multipliers. out is NOT zeroed:
// callers accumulate into gradient buffers directly (the trainer's
// per-block buffers start zeroed, which keeps the sum bitwise identical to
// materializing the product first).
func tMatMulAccum(out, a, b *Matrix) {
	ac, bc := a.cols, b.cols
	if a.rows == 0 {
		return
	}
	for i := 0; i < ac; i++ {
		panel(out.data[i*bc:(i+1)*bc], a.data[i:], ac, b.data, bc, a.rows, true)
	}
}
