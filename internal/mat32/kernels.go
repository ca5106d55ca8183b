package mat32

// 8-wide unrolled inner kernels for the frozen-inference products. Unlike
// the f64 training kernels in internal/mat these carry no zero-skip: frozen
// activations are dense, and straight-line unconditional loops are what the
// compiler auto-vectorizes. Each output row accumulates in ascending-k
// order with sequential adds, so the bits are the same on every run.

// matMulRows computes out = a × b with an ikj loop order, unrolling k by
// 8: one pass streams eight b rows against one output row. Rows are zeroed
// here, so callers never pre-clear out. The slicing keeps every inner index
// bounded by len(orow), which lets the compiler elide the bounds checks in
// the 8-term update.
func matMulRows(out, a, b *Matrix) {
	ac, bc := a.cols, b.cols
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		orow := out.data[i*bc : (i+1)*bc]
		for j := range orow {
			orow[j] = 0
		}
		k := 0
		for ; k+8 <= ac; k += 8 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			a4, a5, a6, a7 := arow[k+4], arow[k+5], arow[k+6], arow[k+7]
			b0 := b.data[(k+0)*bc : (k+1)*bc]
			b1 := b.data[(k+1)*bc : (k+2)*bc]
			b2 := b.data[(k+2)*bc : (k+3)*bc]
			b3 := b.data[(k+3)*bc : (k+4)*bc]
			b4 := b.data[(k+4)*bc : (k+5)*bc]
			b5 := b.data[(k+5)*bc : (k+6)*bc]
			b6 := b.data[(k+6)*bc : (k+7)*bc]
			b7 := b.data[(k+7)*bc : (k+8)*bc]
			for j := range orow {
				// Eight SEQUENTIAL adds into a local: each add rounds like
				// one iteration of the scalar k-loop, so the unrolled tile
				// is bit-identical to the remainder loop below.
				v := orow[j]
				v += a0 * b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				v += a3 * b3[j]
				v += a4 * b4[j]
				v += a5 * b5[j]
				v += a6 * b6[j]
				v += a7 * b7[j]
				orow[j] = v
			}
		}
		for ; k < ac; k++ {
			av := arow[k]
			brow := b.data[k*bc : (k+1)*bc]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// matMulTRows computes out = a × bᵀ, unrolling the output column (b row)
// axis by 8: one streaming pass over the a row feeds eight independent
// dot-product accumulators.
func matMulTRows(out, a, b *Matrix) {
	ac, bc, bn := a.cols, b.cols, b.rows
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*ac : (i+1)*ac]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		j := 0
		for ; j+8 <= bn; j += 8 {
			b0 := b.data[(j+0)*bc : (j+1)*bc]
			b1 := b.data[(j+1)*bc : (j+2)*bc]
			b2 := b.data[(j+2)*bc : (j+3)*bc]
			b3 := b.data[(j+3)*bc : (j+4)*bc]
			b4 := b.data[(j+4)*bc : (j+5)*bc]
			b5 := b.data[(j+5)*bc : (j+6)*bc]
			b6 := b.data[(j+6)*bc : (j+7)*bc]
			b7 := b.data[(j+7)*bc : (j+8)*bc]
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
				s4 += av * b4[k]
				s5 += av * b5[k]
				s6 += av * b6[k]
				s7 += av * b7[k]
			}
			orow[j+0], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4, s5, s6, s7
		}
		for ; j < bn; j++ {
			brow := b.data[j*bc : (j+1)*bc]
			var sum float32
			for k, av := range arow {
				sum += av * brow[k]
			}
			orow[j] = sum
		}
	}
}
