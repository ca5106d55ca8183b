// Package mat implements the small dense-matrix kernel used by the neural
// network substrate. Matrices are row-major float64 with no external
// dependencies. The API favours explicit destination-free operations that
// return fresh matrices, plus a handful of in-place variants on the hot path
// (training loops) to limit allocation.
//
// # Kernel contract
//
// Every f64 product (MatMul, MatMulT, TMatMul and their Into forms) runs
// through one primitive, panel, which adds a sequence of rank-1 updates to
// one output row: o[j] += Σₖ a[k·as]·b[k·bs+j]. Each product and each sum
// is rounded separately, in ascending k: no fused multiply-add and no
// reassociation, so every output element is bit-identical to the naive
// one-add-per-k loop. The zero-skipping products (MatMul, TMatMul) test
// each multiplier for ±0 inside the primitive and skip that k, exactly as
// the naive loop does.
//
// On amd64, panel runs in assembly and holds a strip of output columns in
// registers across all of k, storing it once: 32 columns in four ZMM
// registers when CPUID reports AVX-512F and XGETBV shows the OS saving
// the opmask and ZMM state (XCR0 bits 1, 2, 5, 6, 7); otherwise 16 columns
// in four YMM registers when it reports AVX and OSXSAVE with XCR0 bits 1
// and 2. Narrower strips and a masked last strip finish the row. Each k
// is one VMULPD and one VADDPD per register. Without AVX, and on every
// other GOARCH, a pure-Go loop with the same rounding runs instead. The
// choice is made once at start-up; no flag or environment variable
// changes it, and every path gives the same bits.
//
// a × bᵀ goes through a transpose. Streaming bᵀ's rows through the
// primitive makes the inner loop contiguous, unlike a dot product over
// b's rows, and adding every product (no zero skip) in ascending k is
// exactly that dot product, non-finite values included. MatMulTPreInto
// takes a transpose made once by the caller (TransposeInto), which is how
// the nn layers reuse Wᵀ across a whole backward pass. aᵀ × b runs one
// panel per output row i, with column i of a (stride a.cols) as the
// multipliers.
//
// # Activation slabs
//
// Exp, Sigmoid and Tanh apply one nonlinearity to a whole dst, src slab,
// under the same contract: one fixed algorithm whose every operation is a
// separately rounded add, multiply or divide, so every host gives the same
// bits. math.Exp does not: on amd64 it runs an FMA body when the CPU has
// FMA, and math.Tanh calls it. exp takes k = (x·log2e + 1.5·2⁵²) − 1.5·2⁵²,
// reduces r = (x − k·ln2Hi) − k·ln2Lo, evaluates the degree-13 Taylor
// polynomial of eʳ in Horner form and scales by 2ᵏ through the exponent
// bits in two exact-then-rounded steps, which reach the subnormals and
// +Inf correctly. sigmoid(x) = 1/(1 + exp(−x)) and tanh(x) = ±(1 −
// 2/(exp(2|x|) + 1)) with the sign of x. The scalar Go loop (expGo,
// sigmoidGo, tanhGo) is the reference; when the panel body is AVX-512, an
// assembly body runs the same operation sequence eight lanes at a time.
// Every other host, AVX-only amd64 included, runs the reference, which is
// correct everywhere but slower than math.Exp.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) by operations whose operand shapes do not
// conform.
var ErrShape = errors.New("mat: shape mismatch")

// Matrix is a dense, row-major matrix of float64.
//
// The zero value is an empty 0x0 matrix ready for use with Reset/Resize.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix backed by a copy of data (row-major).
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrShape, len(data), rows, cols)
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m, nil
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("%w: row %d has %d values, want %d", ErrShape, i, len(r), c)
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Len returns the total number of elements.
func (m *Matrix) Len() int { return len(m.data) }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Data exposes the backing slice (row-major). Mutations are visible to the
// matrix; callers that need isolation should Clone first.
func (m *Matrix) Data() []float64 { return m.data }

// Row returns row i as a view into the backing slice.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// SetRow copies r into row i.
func (m *Matrix) SetRow(i int, r []float64) error {
	if len(r) != m.cols {
		return fmt.Errorf("%w: SetRow got %d values, want %d", ErrShape, len(r), m.cols)
	}
	copy(m.Row(i), r)
	return nil
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: CopyFrom %dx%d into %dx%d", ErrShape, src.rows, src.cols, m.rows, m.cols)
	}
	copy(m.data, src.data)
	return nil
}

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < 6; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols && j < 8; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// MatMul returns a × b, computed on the calling goroutine with the
// per-element accumulation order of the naive loop (see the kernel
// contract).
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: MatMul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	matMulRows(out, a, b, true)
	return out, nil
}

// MatMulInto computes dst = a × b into a caller-owned destination, avoiding
// the allocation of MatMul on hot paths (training scratch buffers). dst must
// not alias a or b.
func MatMulInto(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: MatMulInto %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: MatMulInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.rows, b.cols)
	}
	dst.Zero()
	matMulRows(dst, a, b, true)
	return nil
}

// MatMulT returns a × bᵀ: each element is the dot product of an a row and a
// b row, every product added in ascending k (no zero skip). It transposes b
// and runs the row-update kernel of MatMul.
func MatMulT(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.cols {
		return nil, fmt.Errorf("%w: MatMulT %dx%d × (%dx%d)ᵀ", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.rows)
	matMulRows(out, a, b.Transpose(), false)
	return out, nil
}

// MatMulTInto computes dst = a × bᵀ into a caller-owned destination. dst
// must not alias a or b. Every element is overwritten; dst need not be
// zeroed. It allocates the transpose of b; callers that multiply by the
// same b many times transpose it once with TransposeInto and call
// MatMulTPreInto instead.
func MatMulTInto(dst, a, b *Matrix) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulTInto %dx%d × (%dx%d)ᵀ", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	return MatMulTPreInto(dst, a, b.Transpose())
}

// MatMulTPreInto computes dst = a × bᵀ from bt = bᵀ, transposed in advance
// by the caller. The result is bit-identical to MatMulTInto(dst, a, b):
// every product is added in ascending k, zero multipliers included, so
// non-finite values in b propagate exactly as in a dot product. dst must
// not alias a or bt. Every element is overwritten.
func MatMulTPreInto(dst, a, bt *Matrix) error {
	if a.cols != bt.rows {
		return fmt.Errorf("%w: MatMulTPreInto %dx%d × %dx%d", ErrShape, a.rows, a.cols, bt.rows, bt.cols)
	}
	if dst.rows != a.rows || dst.cols != bt.cols {
		return fmt.Errorf("%w: MatMulTPreInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.rows, bt.cols)
	}
	dst.Zero()
	matMulRows(dst, a, bt, false)
	return nil
}

// TMatMul returns aᵀ × b, computed on the calling goroutine like every
// product in this package.
func TMatMul(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: TMatMul (%dx%d)ᵀ × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.cols, b.cols)
	tMatMulAccum(out, a, b)
	return out, nil
}

// TMatMulAddInto accumulates dst += aᵀ × b — the fused form of the gradient
// update G += xᵀ·gy that writes straight into the gradient accumulator
// instead of materializing the product. dst must not alias a or b.
func TMatMulAddInto(dst, a, b *Matrix) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: TMatMulAddInto (%dx%d)ᵀ × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		return fmt.Errorf("%w: TMatMulAddInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.cols, b.cols)
	}
	tMatMulAccum(dst, a, b)
	return nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	transposeData(out, m)
	return out
}

// TransposeInto computes dst = mᵀ into a caller-owned destination. dst must
// not alias m.
func TransposeInto(dst, m *Matrix) error {
	if dst.rows != m.cols || dst.cols != m.rows {
		return fmt.Errorf("%w: TransposeInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, m.cols, m.rows)
	}
	transposeData(dst, m)
	return nil
}

// transposeData writes mᵀ into dst in 16×16 tiles, so the strided writes
// of one tile stay within a few cache lines of dst.
func transposeData(dst, m *Matrix) {
	const tile = 16
	for i0 := 0; i0 < m.rows; i0 += tile {
		i1 := min(i0+tile, m.rows)
		for j0 := 0; j0 < m.cols; j0 += tile {
			j1 := min(j0+tile, m.cols)
			for i := i0; i < i1; i++ {
				for j, v := range m.data[i*m.cols+j0 : i*m.cols+j1] {
					dst.data[(j0+j)*dst.cols+i] = v
				}
			}
		}
	}
}

// AddM returns a + b.
func AddM(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: AddM %dx%d + %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// SubM returns a − b.
func SubM(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: SubM %dx%d - %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// AddInPlace adds b into m.
func (m *Matrix) AddInPlace(b *Matrix) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("%w: AddInPlace %dx%d += %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	for i, v := range b.data {
		m.data[i] += v
	}
	return nil
}

// AddScaled adds s·b into m (axpy).
func (m *Matrix) AddScaled(s float64, b *Matrix) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("%w: AddScaled %dx%d += s*%dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	for i, v := range b.data {
		m.data[i] += s * v
	}
	return nil
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// MulInPlace multiplies m elementwise by b (m ⊙= b).
func (m *Matrix) MulInPlace(b *Matrix) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("%w: MulInPlace %dx%d ⊙= %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	for i, v := range b.data {
		m.data[i] *= v
	}
	return nil
}

// HadamardInto computes dst = a ⊙ b into a caller-owned destination.
func HadamardInto(dst, a, b *Matrix) error {
	if a.rows != b.rows || a.cols != b.cols || dst.rows != a.rows || dst.cols != a.cols {
		return fmt.Errorf("%w: HadamardInto %dx%d = %dx%d ⊙ %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols)
	}
	for i, v := range a.data {
		dst.data[i] = v * b.data[i]
	}
	return nil
}

// Hadamard returns the elementwise product a ⊙ b.
func Hadamard(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: Hadamard %dx%d ⊙ %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] *= v
	}
	return out, nil
}

// Apply returns a new matrix with f applied elementwise.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
	return out
}

// AddRowVector adds a 1×cols row vector to every row of m, in place.
func (m *Matrix) AddRowVector(v *Matrix) error {
	if v.rows != 1 || v.cols != m.cols {
		return fmt.Errorf("%w: AddRowVector %dx%d += %dx%d", ErrShape, m.rows, m.cols, v.rows, v.cols)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, b := range v.data {
			row[j] += b
		}
	}
	return nil
}

// SumRows returns the 1×cols column-sum of m (the gradient reduction used for
// bias terms).
func (m *Matrix) SumRows() *Matrix {
	out := New(1, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// AddSumRows accumulates the 1×cols column-sums of m into dst (dst += Σ
// rows), row by row in row order — the fused form of the bias-gradient
// update G += gy.SumRows() that skips the intermediate matrix.
func AddSumRows(dst, m *Matrix) error {
	if dst.rows != 1 || dst.cols != m.cols {
		return fmt.Errorf("%w: AddSumRows %dx%d += colsums of %dx%d", ErrShape, dst.rows, dst.cols, m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.data[j] += v
		}
	}
	return nil
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// MaxAbs returns the maximum absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// SliceRows returns a copy of rows [from, to).
func (m *Matrix) SliceRows(from, to int) (*Matrix, error) {
	if from < 0 || to > m.rows || from > to {
		return nil, fmt.Errorf("%w: SliceRows [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	out := New(to-from, m.cols)
	copy(out.data, m.data[from*m.cols:to*m.cols])
	return out, nil
}

// RowsView returns rows [from, to) as a view sharing m's backing slice —
// no copy, mutations are visible both ways. The training pipeline uses it
// to hand contiguous minibatch blocks to per-worker shards without
// re-gathering.
func (m *Matrix) RowsView(from, to int) (*Matrix, error) {
	if from < 0 || to > m.rows || from > to {
		return nil, fmt.Errorf("%w: RowsView [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	return &Matrix{rows: to - from, cols: m.cols, data: m.data[from*m.cols : to*m.cols]}, nil
}

// SliceColsInto copies columns [from, to) of m into a caller-owned
// destination (the allocation-free form of SliceCols).
func SliceColsInto(dst, m *Matrix, from, to int) error {
	if from < 0 || to > m.cols || from > to {
		return fmt.Errorf("%w: SliceColsInto [%d,%d) of %d cols", ErrShape, from, to, m.cols)
	}
	if dst.rows != m.rows || dst.cols != to-from {
		return fmt.Errorf("%w: SliceColsInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, m.rows, to-from)
	}
	for i := 0; i < m.rows; i++ {
		copy(dst.Row(i), m.Row(i)[from:to])
	}
	return nil
}

// SliceCols returns a copy of columns [from, to).
func (m *Matrix) SliceCols(from, to int) (*Matrix, error) {
	if from < 0 || to > m.cols || from > to {
		return nil, fmt.Errorf("%w: SliceCols [%d,%d) of %d cols", ErrShape, from, to, m.cols)
	}
	out := New(m.rows, to-from)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
	return out, nil
}

// SetCols copies src into columns [from, from+src.Cols()) of m.
func (m *Matrix) SetCols(from int, src *Matrix) error {
	if src.rows != m.rows || from < 0 || from+src.cols > m.cols {
		return fmt.Errorf("%w: SetCols at %d with %dx%d into %dx%d", ErrShape, from, src.rows, src.cols, m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i)[from:from+src.cols], src.Row(i))
	}
	return nil
}

// ConcatCols concatenates a and b side by side.
func ConcatCols(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: ConcatCols %dx%d | %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, a.cols+b.cols)
	for i := 0; i < a.rows; i++ {
		copy(out.Row(i)[:a.cols], a.Row(i))
		copy(out.Row(i)[a.cols:], b.Row(i))
	}
	return out, nil
}

// ArgmaxRow returns the index of the maximum element of row i.
func (m *Matrix) ArgmaxRow(i int) int {
	row := m.Row(i)
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}
