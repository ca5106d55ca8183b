// Package mat32 is the float32 sibling of internal/mat: the dense-matrix
// kernel behind the frozen-inference path. Training stays in mat (float64,
// bit-deterministic gradients); inference on frozen models runs here, where
// half-width elements double the effective memory bandwidth and the 8-wide
// unrolled kernels give the compiler straight-line loops it can
// auto-vectorize.
//
// The package keeps the contracts of mat that inference relies on: matrices
// are row-major, every product runs on its calling goroutine, and every
// output row accumulates in one fixed arithmetic order, so results are
// byte-identical from run to run.
package mat32

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// ErrShape is returned (wrapped) by operations whose operand shapes do not
// conform.
var ErrShape = errors.New("mat32: shape mismatch")

// Matrix is a dense, row-major matrix of float32.
type Matrix struct {
	rows, cols int
	data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// FromSlice builds a rows×cols matrix backed by a copy of data (row-major).
func FromSlice(rows, cols int, data []float32) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrShape, len(data), rows, cols)
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m, nil
}

// FromF64 quantizes a float64 matrix to float32 — the one-time weight (and
// per-batch input) conversion of the frozen-inference path.
func FromF64(src *mat.Matrix) *Matrix {
	m := New(src.Rows(), src.Cols())
	for i, v := range src.Data() {
		m.data[i] = float32(v)
	}
	return m
}

// QuantizeInto writes float32(src) into m, which must have src's shape — the
// allocation-free form of FromF64 for reusable input buffers.
func (m *Matrix) QuantizeInto(src *mat.Matrix) error {
	if m.rows != src.Rows() || m.cols != src.Cols() {
		return fmt.Errorf("%w: QuantizeInto %dx%d from %dx%d", ErrShape, m.rows, m.cols, src.Rows(), src.Cols())
	}
	for i, v := range src.Data() {
		m.data[i] = float32(v)
	}
	return nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.data[i*m.cols+j] = v }

// Data exposes the backing slice (row-major). Mutations are visible to the
// matrix.
func (m *Matrix) Data() []float32 { return m.data }

// Row returns row i as a view into the backing slice.
func (m *Matrix) Row(i int) []float32 { return m.data[i*m.cols : (i+1)*m.cols] }

// RowsView returns rows [from, to) as a view sharing m's backing slice —
// no copy, mutations are visible both ways. The serving batcher uses it to
// run a fused classify over just the occupied prefix of its staging buffer.
func (m *Matrix) RowsView(from, to int) (*Matrix, error) {
	if from < 0 || to > m.rows || from > to {
		return nil, fmt.Errorf("%w: RowsView [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	return &Matrix{rows: to - from, cols: m.cols, data: m.data[from*m.cols : to*m.cols]}, nil
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

// MatMulInto computes dst = a × b. Every element of dst is overwritten; dst
// must not alias a or b. Each output row accumulates in ascending k, so the
// result is byte-identical from run to run.
func MatMulInto(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: MatMulInto %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: MatMulInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.rows, b.cols)
	}
	matMulRows(dst, a, b)
	return nil
}

// MatMul returns a × b (the allocating convenience form of MatMulInto).
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: MatMul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	matMulRows(out, a, b)
	return out, nil
}

// MatMulTInto computes dst = a × bᵀ. Every element of dst is overwritten;
// dst must not alias a or b. Same determinism contract as MatMulInto.
func MatMulTInto(dst, a, b *Matrix) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulTInto %dx%d × (%dx%d)ᵀ", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		return fmt.Errorf("%w: MatMulTInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.rows, b.rows)
	}
	matMulTRows(dst, a, b)
	return nil
}

// AddBias adds the 1×cols bias row vector to every row of m in place — the
// fused epilogue of the dense-layer product.
func AddBias(m, bias *Matrix) error {
	if bias.rows != 1 || bias.cols != m.cols {
		return fmt.Errorf("%w: AddBias %dx%d += %dx%d", ErrShape, m.rows, m.cols, bias.rows, bias.cols)
	}
	bd := bias.data
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, b := range bd {
			row[j] += b
		}
	}
	return nil
}

// ReLUInto computes dst = max(src, 0) elementwise, on the frozen MLP hot
// path.
func ReLUInto(dst, src *Matrix) error {
	if dst.rows != src.rows || dst.cols != src.cols {
		return fmt.Errorf("%w: ReLUInto %dx%d from %dx%d", ErrShape, dst.rows, dst.cols, src.rows, src.cols)
	}
	dd := dst.data
	for i, v := range src.data {
		if v > 0 {
			dd[i] = v
		} else {
			dd[i] = 0
		}
	}
	return nil
}

// SliceColsInto copies columns [from, to) of m into a caller-owned
// destination — the per-step input gather of the frozen LSTM.
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

// SetCols copies src into columns [from, from+src.Cols()) of m — the
// sequence-output scatter of the frozen LSTM.
func (m *Matrix) SetCols(from int, src *Matrix) error {
	if src.rows != m.rows || from < 0 || from+src.cols > m.cols {
		return fmt.Errorf("%w: SetCols at %d with %dx%d into %dx%d", ErrShape, from, src.rows, src.cols, m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i)[from:from+src.cols], src.Row(i))
	}
	return nil
}

// ArgmaxRow returns the index of the maximum element of row i (first index
// wins ties, matching mat.Matrix.ArgmaxRow).
func (m *Matrix) ArgmaxRow(i int) int {
	row := m.Row(i)
	if len(row) == 0 {
		return 0
	}
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}
