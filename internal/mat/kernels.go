package mat

// Inner kernels for the matrix products, all built on axpy4 (see the
// package comment for its rounding contract). The zero-skip of the sparse
// products (which matters for ReLU-sparse activations) is preserved by
// falling back to the scalar loop whenever a tile contains a zero
// multiplier. Results are therefore byte-identical to the naive kernels on
// every path, at any blocking and any worker count — the determinism
// contract the parallel row-block dispatch and the training pipeline rely
// on.

// useAVX selects the AVX body of axpy4. It is fixed at start-up from
// CPUID; tests flip it to run the pure-Go loop on the same inputs.
var useAVX = detectAVX()

// axpy4 applies, for every j,
//
//	o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// The b rows must be at least len(o) long. With AVX the 4-lane assembly
// body covers the largest multiple of 4 and the scalar loop the rest;
// without it the scalar loop covers everything.
func axpy4(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	j := 0
	if useAVX && n >= 4 {
		j = n &^ 3
		axpy4AVX(&o[0], &b0[0], &b1[0], &b2[0], &b3[0], j, a0, a1, a2, a3)
	}
	for ; j < n; j++ {
		// Four SEQUENTIAL adds into a local (not a fused four-term sum):
		// each add rounds exactly like one iteration of the scalar
		// k-loop, which is what keeps the tile bit-identical to the
		// untiled kernel. The float64 conversions forbid fusing a product
		// and its add into one FMA on architectures whose compiler would.
		v := o[j]
		v += float64(a0 * b0[j])
		v += float64(a1 * b1[j])
		v += float64(a2 * b2[j])
		v += float64(a3 * b3[j])
		o[j] = v
	}
}

// matMulRows computes rows [lo, hi) of out += a × b with an ikj loop order,
// unrolling k by 4: each axpy4 streams four b rows against one output row,
// so the output row is loaded and stored once per four rank-1 updates. With
// skipZeros, zero multipliers contribute nothing (a tile holding one takes
// the scalar path); without it every product is added, which is the
// ascending-k dot product of a × bᵀ when b holds the transpose.
func matMulRows(out, a, b *Matrix, lo, hi int, skipZeros bool) {
	ac, bc := a.cols, b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		orow := out.data[i*bc : (i+1)*bc]
		k := 0
		for ; k+4 <= ac; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			if !skipZeros || (a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0) {
				axpy4(orow, b.data[k*bc:(k+1)*bc], b.data[(k+1)*bc:(k+2)*bc],
					b.data[(k+2)*bc:(k+3)*bc], b.data[(k+3)*bc:(k+4)*bc], a0, a1, a2, a3)
				continue
			}
			// A zero multiplier in the tile: take the scalar path so zero
			// rows are skipped outright, exactly like the untiled kernel.
			matMulScalarK(orow, arow, b, k, k+4, true)
		}
		matMulScalarK(orow, arow, b, k, ac, skipZeros)
	}
}

// matMulScalarK applies rank-1 updates orow += arow[k]·b[k,:] for k in
// [from, to), skipping zero multipliers when skipZeros is set.
func matMulScalarK(orow, arow []float64, b *Matrix, from, to int, skipZeros bool) {
	bc := b.cols
	for k := from; k < to; k++ {
		av := arow[k]
		if skipZeros && av == 0 {
			continue
		}
		brow := b.data[k*bc : (k+1)*bc]
		for j, bv := range brow {
			orow[j] += float64(av * bv)
		}
	}
}

// tMatMulAccum accumulates out += aᵀ × b, unrolling k (the shared row axis)
// by 4 so each output row is loaded and stored once per four row-pair
// contributions. out is NOT zeroed: callers accumulate into gradient
// buffers directly (the trainer's per-block buffers start zeroed, which
// keeps the sum bitwise identical to materializing the product first).
func tMatMulAccum(out, a, b *Matrix) {
	ac, bc := a.cols, b.cols
	k := 0
	for ; k+4 <= a.rows; k += 4 {
		a0r := a.data[k*ac : (k+1)*ac]
		a1r := a.data[(k+1)*ac : (k+2)*ac]
		a2r := a.data[(k+2)*ac : (k+3)*ac]
		a3r := a.data[(k+3)*ac : (k+4)*ac]
		b0 := b.data[k*bc : (k+1)*bc]
		b1 := b.data[(k+1)*bc : (k+2)*bc]
		b2 := b.data[(k+2)*bc : (k+3)*bc]
		b3 := b.data[(k+3)*bc : (k+4)*bc]
		for i := 0; i < ac; i++ {
			a0, a1, a2, a3 := a0r[i], a1r[i], a2r[i], a3r[i]
			orow := out.data[i*bc : (i+1)*bc]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(orow, b0, b1, b2, b3, a0, a1, a2, a3)
				continue
			}
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			// Mixed tile: per-contribution scalar loops keep the zero-skip
			// semantics of the untiled kernel.
			if a0 != 0 {
				for j, bv := range b0 {
					orow[j] += float64(a0 * bv)
				}
			}
			if a1 != 0 {
				for j, bv := range b1 {
					orow[j] += float64(a1 * bv)
				}
			}
			if a2 != 0 {
				for j, bv := range b2 {
					orow[j] += float64(a2 * bv)
				}
			}
			if a3 != 0 {
				for j, bv := range b3 {
					orow[j] += float64(a3 * bv)
				}
			}
		}
	}
	for ; k < a.rows; k++ {
		arow := a.data[k*ac : (k+1)*ac]
		brow := b.data[k*bc : (k+1)*bc]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*bc : (i+1)*bc]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
}
