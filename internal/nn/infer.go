package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat32"
)

// InferModel is the read-only float32 twin of a trained Model: weights are
// quantized once at Freeze time, inference runs through the 8-wide mat32
// kernels, and all intermediate activations live in per-goroutine pooled
// workspaces — so a steady-state Infer performs zero allocations and any
// number of goroutines may share one InferModel concurrently.
//
// The twin is inference-only by construction (no gradients, no backward
// caches, no optimizer state) and is never serialized: monitor.Save persists
// the canonical f64 model, and the frozen twin is rebuilt lazily after Load.
// Training, and any path that needs bit-deterministic f64 arithmetic, stays
// on Model.
type InferModel struct {
	inSize, outSize int
	layers          []inferLayer
	pool            sync.Pool // *inferWorkspace
}

// inferWorkspace holds one goroutine's per-layer scratch. Each layer owns
// one slot and re-creates its contents when the batch shape changes, so a
// workspace reused at a steady batch size allocates nothing.
type inferWorkspace struct {
	slots []any
}

// inferLayer is a frozen, read-only layer: infer computes the layer output
// for x into (reused) scratch stored in slot. Implementations never mutate
// the layer itself, only the slot — that is what makes a shared InferModel
// concurrency-safe.
type inferLayer interface {
	name() string
	infer(slot *any, x *mat32.Matrix) (*mat32.Matrix, error)
}

// Freeze quantizes the model into its float32 inference twin. The model's
// weights are copied (narrowed to f32) once; later training steps on the
// source model do NOT propagate — freeze after training, or re-freeze.
func (m *Model) Freeze() (*InferModel, error) {
	im := &InferModel{inSize: m.inSize, outSize: m.OutputSize()}
	for _, l := range m.layers {
		switch v := l.(type) {
		case *Dense:
			im.layers = append(im.layers, &denseInfer{
				in:  v.in,
				out: v.out,
				w:   mat32.FromF64(v.w.W),
				b:   mat32.FromF64(v.b.W),
			})
		case *LSTM:
			im.layers = append(im.layers, &lstmInfer{
				inputSize:  v.inputSize,
				hidden:     v.hidden,
				steps:      v.steps,
				returnSeqs: v.returnSeqs,
				wx:         mat32.FromF64(v.wx.W),
				wh:         mat32.FromF64(v.wh.W),
				b:          mat32.FromF64(v.b.W),
			})
		case *ReLU:
			im.layers = append(im.layers, &actInfer{kind: actReLU})
		case *Tanh:
			im.layers = append(im.layers, &actInfer{kind: actTanh})
		case *Sigmoid:
			im.layers = append(im.layers, &actInfer{kind: actSigmoid})
		default:
			return nil, fmt.Errorf("nn: freeze: unsupported layer type %q", l.Name())
		}
	}
	n := len(im.layers)
	im.pool.New = func() any { return &inferWorkspace{slots: make([]any, n)} }
	return im, nil
}

// InputSize returns the expected number of input features.
func (im *InferModel) InputSize() int { return im.inSize }

// OutputSize returns the number of classes (final logit width).
func (im *InferModel) OutputSize() int { return im.outSize }

// run pushes x through the frozen stack using ws for scratch; the returned
// matrix is workspace-owned.
func (im *InferModel) run(ws *inferWorkspace, x *mat32.Matrix) (*mat32.Matrix, error) {
	out := x
	var err error
	for i, l := range im.layers {
		out, err = l.infer(&ws.slots[i], out)
		if err != nil {
			return nil, fmt.Errorf("nn: infer layer %d (%s): %w", i, l.name(), err)
		}
	}
	return out, nil
}

// Infer computes logits for a batch into dst (batch × OutputSize). At a
// steady batch size it performs zero allocations; concurrent callers each
// draw a private workspace from the pool.
func (im *InferModel) Infer(x, dst *mat32.Matrix) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: infer: %d input cols, want %d", x.Cols(), im.inSize)
	}
	ws := im.pool.Get().(*inferWorkspace)
	defer im.pool.Put(ws)
	out, err := im.run(ws, x)
	if err != nil {
		return err
	}
	return dst.CopyFrom(out)
}

// Logits is the allocating convenience form of Infer.
func (im *InferModel) Logits(x *mat32.Matrix) (*mat32.Matrix, error) {
	dst := mat32.New(x.Rows(), im.outSize)
	if err := im.Infer(x, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ClassifyInto computes, per input row, the argmax class and its softmax
// probability, written into classes and conf (conf may be nil). Both slices
// must have x.Rows() entries. The softmax epilogue accumulates in float64
// with a fixed iteration order, so results do not depend on the worker
// count.
func (im *InferModel) ClassifyInto(x *mat32.Matrix, classes []int, conf []float64) error {
	if x.Cols() != im.inSize {
		return fmt.Errorf("nn: classify: %d input cols, want %d", x.Cols(), im.inSize)
	}
	if len(classes) != x.Rows() {
		return fmt.Errorf("nn: classify: %d class slots for %d rows", len(classes), x.Rows())
	}
	if conf != nil && len(conf) != x.Rows() {
		return fmt.Errorf("nn: classify: %d confidence slots for %d rows", len(conf), x.Rows())
	}
	ws := im.pool.Get().(*inferWorkspace)
	defer im.pool.Put(ws)
	logits, err := im.run(ws, x)
	if err != nil {
		return err
	}
	for i := 0; i < logits.Rows(); i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		classes[i] = best
		if conf != nil {
			mx := float64(row[best])
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v) - mx)
			}
			conf[i] = 1 / sum
		}
	}
	return nil
}

// denseInfer is the frozen fully-connected layer: y = x·W + b.
type denseInfer struct {
	in, out int
	w       *mat32.Matrix // in×out
	b       *mat32.Matrix // 1×out
}

func (d *denseInfer) name() string { return "dense" }

func (d *denseInfer) infer(slot *any, x *mat32.Matrix) (*mat32.Matrix, error) {
	y, ok := (*slot).(*mat32.Matrix)
	if !ok || y.Rows() != x.Rows() {
		y = mat32.New(x.Rows(), d.out)
		*slot = y
	}
	if err := mat32.MatMulInto(y, x, d.w); err != nil {
		return nil, err
	}
	if err := mat32.AddBias(y, d.b); err != nil {
		return nil, err
	}
	return y, nil
}

// actInfer is a frozen elementwise activation.
type actInfer struct {
	kind actKind
}

type actKind int

const (
	actReLU actKind = iota
	actTanh
	actSigmoid
)

func (a *actInfer) name() string {
	switch a.kind {
	case actReLU:
		return "relu"
	case actTanh:
		return "tanh"
	default:
		return "sigmoid"
	}
}

func (a *actInfer) infer(slot *any, x *mat32.Matrix) (*mat32.Matrix, error) {
	y, ok := (*slot).(*mat32.Matrix)
	if !ok || y.Rows() != x.Rows() || y.Cols() != x.Cols() {
		y = mat32.New(x.Rows(), x.Cols())
		*slot = y
	}
	switch a.kind {
	case actReLU:
		return y, mat32.ReLUInto(y, x)
	case actTanh:
		return y, mat32.ApplyInto(y, x, tanh32)
	default:
		return y, mat32.ApplyInto(y, x, sigmoid32)
	}
}

func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }

func sigmoid32(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

// lstmInfer is the frozen recurrent layer. Instead of materializing the four
// gate matrices like the training path, the gate nonlinearities, the cell
// update and the hidden update are fused into one elementwise pass per step
// over the packed pre-activations — the frozen path needs no per-gate
// backward state.
type lstmInfer struct {
	inputSize  int
	hidden     int
	steps      int
	returnSeqs bool

	wx *mat32.Matrix // inputSize × 4·hidden
	wh *mat32.Matrix // hidden × 4·hidden
	b  *mat32.Matrix // 1 × 4·hidden
}

// lstmInferScratch is the per-workspace recurrence state, sized for one
// batch shape.
type lstmInferScratch struct {
	batch  int
	xt     *mat32.Matrix // per-step input (batch × inputSize)
	z, zh  *mat32.Matrix // packed pre-activations (batch × 4·hidden)
	h, c   *mat32.Matrix // hidden / cell state (batch × hidden)
	seqOut *mat32.Matrix // stacked hidden states when returnSeqs
}

func (l *lstmInfer) name() string { return "lstm" }

func (l *lstmInfer) infer(slot *any, x *mat32.Matrix) (*mat32.Matrix, error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm infer: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	H := l.hidden
	ws, ok := (*slot).(*lstmInferScratch)
	if !ok || ws.batch != batch {
		ws = &lstmInferScratch{
			batch: batch,
			xt:    mat32.New(batch, l.inputSize),
			z:     mat32.New(batch, 4*H),
			zh:    mat32.New(batch, 4*H),
			h:     mat32.New(batch, H),
			c:     mat32.New(batch, H),
		}
		if l.returnSeqs {
			ws.seqOut = mat32.New(batch, l.steps*H)
		}
		*slot = ws
	}
	ws.h.Zero()
	ws.c.Zero()
	for t := 0; t < l.steps; t++ {
		if err := mat32.SliceColsInto(ws.xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm infer step %d: %w", t, err)
		}
		if err := mat32.MatMulInto(ws.z, ws.xt, l.wx); err != nil {
			return nil, fmt.Errorf("nn: lstm infer Wx step %d: %w", t, err)
		}
		if err := mat32.MatMulInto(ws.zh, ws.h, l.wh); err != nil {
			return nil, fmt.Errorf("nn: lstm infer Wh step %d: %w", t, err)
		}
		if err := ws.z.AddInPlace(ws.zh); err != nil {
			return nil, err
		}
		if err := mat32.AddBias(ws.z, l.b); err != nil {
			return nil, err
		}
		// Fused gate/cell/hidden update (gate layout [i|f|g|o]). zh was
		// computed from the previous h above, so updating h and c in place
		// is safe.
		for i := 0; i < batch; i++ {
			zr := ws.z.Row(i)
			cr := ws.c.Row(i)
			hr := ws.h.Row(i)
			for j := 0; j < H; j++ {
				ig := sigmoid32(zr[j])
				fg := sigmoid32(zr[H+j])
				gg := tanh32(zr[2*H+j])
				og := sigmoid32(zr[3*H+j])
				cv := fg*cr[j] + ig*gg
				cr[j] = cv
				hr[j] = og * tanh32(cv)
			}
		}
		if l.returnSeqs {
			if err := ws.seqOut.SetCols(t*H, ws.h); err != nil {
				return nil, err
			}
		}
	}
	if l.returnSeqs {
		return ws.seqOut, nil
	}
	return ws.h, nil
}
