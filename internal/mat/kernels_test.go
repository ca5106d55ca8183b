package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Naive reference kernels with the exact rounding order every kernel path
// must reproduce: one rounded multiply and one rounded add per
// k-contribution, in ascending k. MatMul and TMatMul skip zero multipliers;
// the a × bᵀ dot product adds every product.

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

func naiveMatMulT(a, b *Matrix) *Matrix {
	out := New(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			var sum float64
			for k, av := range arow {
				sum += float64(av * brow[k])
			}
			out.data[i*out.cols+j] = sum
		}
	}
	return out
}

// naiveTMatMulAdd returns base + aᵀ × b, accumulated onto a copy of base.
func naiveTMatMulAdd(base, a, b *Matrix) *Matrix {
	out := base.Clone()
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// nanOperands holds 0 and +Inf so the test NaN is made at run time, by
// the FPU, rather than folded by the compiler.
var nanOperands = []float64{0, math.Inf(1)}

// testNaN is the NaN the FPU itself generates (0·Inf). Using it as the NaN
// operand makes every NaN in a test carry the same bits, so the comparison
// stays exact: which of two NaN addends propagates is not part of the
// contract, because Go's compiler commutes float additions freely.
var testNaN = nanOperands[0] * nanOperands[1]

// kernelPaths runs f once per panel body, AVX-512, AVX and pure Go,
// skipping the bodies this machine lacks, and restores the start-up
// selection afterwards.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved simdLevel) { simd = saved }(simd)
	for _, p := range simdPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.level > detectSIMD() {
				t.Skipf("CPU or OS lacks %s", p.name)
			}
			simd = p.level
			f(t)
		})
	}
}

// simdPaths names every panel body, widest first.
var simdPaths = []struct {
	name  string
	level simdLevel
}{{"avx512", simdAVX512}, {"avx", simdAVX}, {"generic", simdGeneric}}

// kernelShapes are (m, k, n) products: the per-step shapes of the Default
// LSTM monitors (batch 32, 6 features, hidden 64 and 32), then the
// backward dz·Wᵀ shapes and the dW shape (TMatMulAddInto of a 32×64ᵀ by a
// 32×256 operand), then ragged widths that end in every strip and tail of
// the panel bodies, and k = 0.
var kernelShapes = [][3]int{
	{32, 6, 256}, {32, 64, 256}, {32, 64, 128}, {32, 32, 128},
	{32, 256, 64}, {32, 128, 32}, {32, 256, 6}, {64, 32, 256},
	{7, 13, 11}, {8, 16, 4}, {1, 5, 9}, {32, 39, 64}, {3, 4, 4},
	{5, 8, 6}, {4, 12, 3}, {2, 9, 1}, {6, 17, 13}, {9, 24, 37},
	{3, 7, 1}, {3, 7, 3}, {3, 7, 5}, {3, 7, 7}, {3, 7, 9}, {3, 7, 17},
	{3, 7, 31}, {3, 7, 33}, {3, 7, 40}, {3, 7, 63}, {3, 7, 65},
	{4, 0, 7}, {1, 0, 33},
}

// fillValues overwrites m according to kind: "dense" normal values;
// "sparse" with half the entries and every third row zero (the ReLU
// pattern that exercises the zero-skip paths); "special" mixing ±0,
// subnormals, overflowing magnitudes, ±Inf and NaN into normal values.
func fillValues(rng *rand.Rand, m *Matrix, kind string) {
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-308,
		1e300, -1e300, math.Inf(1), math.Inf(-1), testNaN,
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			v := rng.NormFloat64()
			switch kind {
			case "sparse":
				if i%3 == 2 || rng.Intn(2) == 0 {
					v = 0
				}
			case "special":
				if rng.Intn(4) == 0 {
					v = specials[rng.Intn(len(specials))]
				}
			}
			row[j] = v
		}
	}
}

// requireSameBits fails unless got and want have the same shape and
// bit-identical elements (−0 ≠ +0; NaN compared by its bits).
func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#016x), want %v (%#016x)", what,
				i/got.cols, i%got.cols, v, math.Float64bits(v), want.data[i], math.Float64bits(want.data[i]))
		}
	}
}

// TestTiledKernelsBitIdenticalToNaive pins the kernel contract: on every
// path (AVX-512, AVX and pure Go), every product reproduces the naive
// one-add-per-k rounding sequence bit for bit — at the Default LSTM
// forward and backward shapes, at ragged widths and at k = 0, on dense,
// ReLU-sparse, and special-valued (±0, subnormal, overflowing, ±Inf, NaN)
// operands.
func TestTiledKernelsBitIdenticalToNaive(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, kind := range []string{"dense", "sparse", "special"} {
			for _, s := range kernelShapes {
				m, k, n := s[0], s[1], s[2]
				what := func(op string) string { return fmt.Sprintf("%s %s %dx%d·%dx%d", op, kind, m, k, k, n) }
				a, b, bt, at, base := New(m, k), New(k, n), New(n, k), New(k, m), New(m, n)
				for _, x := range []*Matrix{a, b, bt, at, base} {
					fillValues(rng, x, kind)
				}

				got := New(m, n)
				got.Fill(7) // MatMulInto must overwrite
				if err := MatMulInto(got, a, b); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, what("MatMulInto"), got, naiveMatMul(a, b))

				wantT := naiveMatMulT(a, bt)
				got.Fill(7)
				if err := MatMulTInto(got, a, bt); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, what("MatMulTInto"), got, wantT)
				got.Fill(7)
				if err := MatMulTPreInto(got, a, bt.Transpose()); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, what("MatMulTPreInto"), got, wantT)

				got = base.Clone()
				if err := TMatMulAddInto(got, at, b); err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, what("TMatMulAddInto"), got, naiveTMatMulAdd(base, at, b))
			}
		}
	})
}

// TestPanelBounds drives the primitive directly at every width up to 70, at
// unaligned offsets, with strided multipliers and padded b rows, skipping
// zeros or not: each element must match the scalar sequence and nothing
// outside o may be written.
func TestPanelBounds(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for n := 0; n <= 70; n++ {
			for off := 0; off < 3; off++ {
				for _, as := range []int{1, 3} {
					for _, kn := range []int{1, 2, 5} {
						for _, skip := range []bool{false, true} {
							checkPanel(t, rng, n, off, as, kn, skip)
						}
					}
				}
			}
		}
	})
}

func checkPanel(t *testing.T, rng *rand.Rand, n, off, as, kn int, skip bool) {
	t.Helper()
	buf := make([]float64, off+n+5)
	for i := range buf {
		buf[i] = rng.NormFloat64()
	}
	a := make([]float64, kn*as)
	for i := range a {
		if a[i] = rng.NormFloat64(); rng.Intn(3) == 0 {
			a[i] = 0
		}
	}
	bs := n + off
	b := make([]float64, off+kn*bs)[off:]
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), buf...)
	for k := 0; k < kn; k++ {
		av := a[k*as]
		if skip && av == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			want[off+j] += float64(av * b[k*bs+j])
		}
	}
	panel(buf[off:off+n], a, as, b, bs, kn, skip)
	for i, v := range buf {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d off=%d as=%d kn=%d skip=%v: buf[%d] = %v, want %v", n, off, as, kn, skip, i, v, want[i])
		}
	}
}

// BenchmarkKernels reports GFLOP/s for each product on every panel body,
// serially: at the Default LSTM step shapes, the backward dz·Wᵀ shapes,
// and a ReLU-sparse arm in which the in-kernel zero skip runs.
func BenchmarkKernels(b *testing.B) {
	defer func(saved simdLevel) { simd = saved }(simd)
	rng := rand.New(rand.NewSource(5))
	for _, path := range simdPaths {
		for _, kind := range []string{"dense", "sparse"} {
			for _, s := range kernelShapes[:7] {
				m, k, n := s[0], s[1], s[2]
				a, x, xt, at := New(m, k), New(k, n), New(n, k), New(k, m)
				for _, mm := range []*Matrix{a, x, xt, at} {
					fillValues(rng, mm, kind)
				}
				dst := New(m, n)
				xtt := xt.Transpose()
				ops := []struct {
					name string
					run  func() error
				}{
					{"matmul", func() error { return MatMulInto(dst, a, x) }},
					{"matmul_t", func() error { return MatMulTInto(dst, a, xt) }},
					{"matmul_t_pre", func() error { return MatMulTPreInto(dst, a, xtt) }},
					{"tmatmul_add", func() error { return TMatMulAddInto(dst, at, x) }},
				}
				for _, op := range ops {
					b.Run(fmt.Sprintf("%s/%s/%s/%dx%dx%d", path.name, kind, op.name, m, k, n), func(b *testing.B) {
						if path.level > detectSIMD() {
							b.Skipf("CPU or OS lacks %s", path.name)
						}
						simd = path.level
						for i := 0; i < b.N; i++ {
							if err := op.run(); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
			}
		}
	}
}
