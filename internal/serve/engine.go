// Package serve turns the offline safety monitors into a streaming
// monitor-as-a-service: per-patient sessions assemble raw CGM/insulin
// samples into normalized model inputs and classify them inline, on the
// request's own goroutine, through the frozen float32 engine (or the f64
// escape hatch).
//
// There is one serving path. Each request's rows are scored in blocks of
// at most blockRows rows staged into pooled buffers; concurrent sessions
// classify in parallel, and a session's appends serialize under its lock.
// Block composition changes cost, never results: every mat32 kernel (and
// the f64 predict path) computes each output row independently, so a row's
// verdict is bit-identical whether it is scored alone or inside any block.
package serve

import (
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/mat32"
	"repro/internal/monitor"
)

// Precision names accepted by Config.Precision (mirrors eval's constants:
// f32 is the frozen fast path and the serving default, f64 the canonical
// escape hatch).
const (
	PrecisionF32 = "f32"
	PrecisionF64 = "f64"
)

// blockRows caps the rows scored by one inference call, and so the size of
// the pooled staging buffers and of the model workspaces they feed. It is
// also the NDJSON ingest chunk cap. Scoring a long unary body as one block
// would park a workspace of that many rows in the pool; padding short
// blocks up to blockRows would multiply a one-row request's work.
const blockRows = 32

// classifyFunc scores assembled (already normalized) feature rows:
// classes[i] and conf[i] receive the argmax class and its softmax
// probability for rows[i]. It is safe for concurrent calls.
type classifyFunc func(rows [][]float64, classes []int, conf []float64) error

// newClassify builds the server's classify path: rows are cut into blocks
// of at most blockRows, and each block is staged into a pooled
// blockRows-row buffer and scored on a prefix view of it.
func newClassify(m *monitor.MLMonitor, precision string) (classifyFunc, error) {
	in := m.Model().InputSize()
	var block classifyFunc
	switch precision {
	case "", PrecisionF32:
		im, err := m.Frozen()
		if err != nil {
			return nil, err
		}
		pool := sync.Pool{New: func() any { return mat32.New(blockRows, in) }}
		block = func(rows [][]float64, classes []int, conf []float64) error {
			buf := pool.Get().(*mat32.Matrix)
			defer pool.Put(buf)
			x, err := buf.RowsView(0, len(rows))
			if err != nil {
				return err
			}
			for i, r := range rows {
				if len(r) != in {
					return fmt.Errorf("serve: row of %d features, want %d", len(r), in)
				}
				dst := x.Row(i)
				for j, v := range r {
					dst[j] = float32(v)
				}
			}
			return im.ClassifyInto(x, classes, conf)
		}
	case PrecisionF64:
		pool := sync.Pool{New: func() any { return mat.New(blockRows, in) }}
		block = func(rows [][]float64, classes []int, conf []float64) error {
			buf := pool.Get().(*mat.Matrix)
			defer pool.Put(buf)
			x, err := buf.RowsView(0, len(rows))
			if err != nil {
				return err
			}
			for i, r := range rows {
				if err := x.SetRow(i, r); err != nil {
					return err
				}
			}
			verdicts, err := m.ClassifyMatrix(x)
			if err != nil {
				return err
			}
			for i, v := range verdicts {
				classes[i] = 0
				if v.Unsafe {
					classes[i] = 1
				}
				conf[i] = v.Confidence
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("serve: unknown precision %q (want %s or %s)", precision, PrecisionF32, PrecisionF64)
	}
	return func(rows [][]float64, classes []int, conf []float64) error {
		for lo := 0; lo < len(rows); lo += blockRows {
			hi := min(lo+blockRows, len(rows))
			if err := block(rows[lo:hi], classes[lo:hi], conf[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
