package mat32

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mat"
)

// naiveMatMul is the reference ijk product the unrolled kernels must match
// bit for bit (ascending-k sequential adds — the same order the kernels
// keep).
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float32
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = float32(rng.NormFloat64())
	}
	return m
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// TestMatMulMatchesNaive pins the unrolled kernel to the scalar reference at
// shapes that exercise the 8-wide body, the remainder loop, and both.
func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 8, 5}, {7, 16, 9}, {5, 13, 11}, {32, 24, 2}, {17, 33, 65}} {
		a := randMatrix(rng, shape[0], shape[1])
		b := randMatrix(rng, shape[1], shape[2])
		want := naiveMatMul(a, b)
		got := New(shape[0], shape[2])
		if err := MatMulInto(got, a, b); err != nil {
			t.Fatalf("MatMulInto %v: %v", shape, err)
		}
		if !matricesEqual(got, want) {
			t.Fatalf("MatMulInto %v diverges from naive product", shape)
		}
	}
}

// TestMatMulTMatchesTranspose checks a × bᵀ against MatMul with an explicit
// transpose at shapes covering the unrolled body and remainder.
func TestMatMulTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][3]int{{1, 3, 1}, {4, 8, 9}, {6, 17, 13}, {20, 5, 8}} {
		a := randMatrix(rng, shape[0], shape[1])
		b := randMatrix(rng, shape[2], shape[1]) // b is (bn × ac); product is a × bᵀ
		bt := New(shape[1], shape[2])
		for i := 0; i < b.Rows(); i++ {
			for j := 0; j < b.Cols(); j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		got := New(shape[0], shape[2])
		if err := MatMulTInto(got, a, b); err != nil {
			t.Fatalf("MatMulTInto %v: %v", shape, err)
		}
		want := naiveMatMul(a, bt)
		for i := 0; i < got.Rows(); i++ {
			for j := 0; j < got.Cols(); j++ {
				g, w := got.At(i, j), want.At(i, j)
				d := g - w
				if d < -1e-4 || d > 1e-4 {
					t.Fatalf("MatMulT %v at (%d,%d): got %v want %v", shape, i, j, g, w)
				}
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin,
// which would resolve the default worker budget to one and so hide any
// goroutine fan-out: the mean heap allocations over runs calls of f, after
// one warm-up call, truncated to an integer as AllocsPerRun does.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestMatMulZeroAlloc pins that the f64 and f32 products allocate nothing
// under the default worker budget (all cores): every product runs on its
// calling goroutine, above and below the 1<<16 multiply-accumulate size
// that once switched on a row-block fan-out.
func TestMatMulZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][3]int{{128, 96, 80}, {16, 32, 24}} {
		m, k, n := s[0], s[1], s[2]
		a, b, bt := mat.RandNormal(rng, m, k, 1), mat.RandNormal(rng, k, n, 1), mat.RandNormal(rng, n, k, 1)
		a32, b32, bt32 := FromF64(a), FromF64(b), FromF64(bt)
		out, out32 := mat.New(m, n), New(m, n)
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"mat.MatMulInto", func() error { return mat.MatMulInto(out, a, b) }},
			{"mat.MatMulTPreInto", func() error { return mat.MatMulTPreInto(out, a, b) }},
			{"mat32.MatMulInto", func() error { return MatMulInto(out32, a32, b32) }},
			{"mat32.MatMulTInto", func() error { return MatMulTInto(out32, a32, bt32) }},
		} {
			if allocs := allocsPerRun(10, func() {
				if err := c.run(); err != nil {
					t.Fatalf("%s %dx%d·%dx%d: %v", c.name, m, k, k, n, err)
				}
			}); allocs != 0 {
				t.Errorf("%s %dx%d·%dx%d allocates %v objects per run", c.name, m, k, k, n, allocs)
			}
		}
	}
}

func TestAddBiasAndApply(t *testing.T) {
	m, err := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	bias, err := FromSlice(1, 3, []float32{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := AddBias(m, bias); err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range m.Data() {
		if v != want[i] {
			t.Fatalf("AddBias[%d] = %v, want %v", i, v, want[i])
		}
	}

	neg, err := FromSlice(1, 4, []float32{-1, 2, -3, 4})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1, 4)
	if err := ReLUInto(r, neg); err != nil {
		t.Fatal(err)
	}
	wantR := []float32{0, 2, 0, 4}
	for i, v := range r.Data() {
		if v != wantR[i] {
			t.Fatalf("ReLUInto[%d] = %v, want %v", i, v, wantR[i])
		}
	}
}

func TestSliceSetColsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 5, 12)
	part := New(5, 4)
	if err := SliceColsInto(part, m, 4, 8); err != nil {
		t.Fatal(err)
	}
	back := New(5, 12)
	if err := back.SetCols(4, part); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 4; j < 8; j++ {
			if back.At(i, j) != m.At(i, j) {
				t.Fatalf("round trip (%d,%d): %v != %v", i, j, back.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	src := mat.New(2, 2)
	src.Set(0, 0, 1.5)
	src.Set(1, 1, -2.25)
	q := FromF64(src)
	if q.At(0, 0) != 1.5 || q.At(1, 1) != -2.25 {
		t.Fatalf("FromF64 = %v", q.Data())
	}
	buf := New(2, 2)
	if err := buf.QuantizeInto(src); err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(buf, q) {
		t.Fatal("QuantizeInto differs from FromF64")
	}
	if q.ArgmaxRow(0) != 0 || q.ArgmaxRow(1) != 0 { // row 1 is [0, -2.25]
		t.Fatalf("ArgmaxRow = %d,%d", q.ArgmaxRow(0), q.ArgmaxRow(1))
	}
}

func TestShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 5)
	if err := MatMulInto(New(2, 5), a, b); err == nil {
		t.Fatal("MatMulInto accepted mismatched inner dims")
	}
	if err := MatMulTInto(New(2, 4), a, b); err == nil {
		t.Fatal("MatMulTInto accepted mismatched cols")
	}
	if err := AddBias(a, New(2, 3)); err == nil {
		t.Fatal("AddBias accepted non-row bias")
	}
	if _, err := FromSlice(2, 2, []float32{1}); err == nil {
		t.Fatal("FromSlice accepted short data")
	}
}
