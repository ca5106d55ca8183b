package nn

import (
	"fmt"
	"sync"

	"repro/internal/mat"
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
	conf  []float64 // ClassifyInto's softmax scratch, one row per logit row
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
	}
	if conf == nil {
		return nil
	}
	// The winning class's softmax probability, 1/Σⱼ exp(zⱼ − z_best): the
	// shifted logits of the whole block are widened to float64, go through
	// one mat.Exp, and each row's sum accumulates in column order.
	k := logits.Cols()
	ws.conf = growF64(ws.conf, logits.Rows()*k)
	for i := 0; i < logits.Rows(); i++ {
		row, mx := logits.Row(i), float64(logits.At(i, classes[i]))
		for j, v := range row {
			ws.conf[i*k+j] = float64(v) - mx
		}
	}
	mat.Exp(ws.conf, ws.conf)
	for i := range conf {
		var sum float64
		for _, e := range ws.conf[i*k : (i+1)*k] {
			sum += e
		}
		conf[i] = 1 / sum
	}
	return nil
}

// growF64 returns buf resliced to n elements, reallocated only when its
// capacity is short.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
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

// actInfer is a frozen elementwise activation. Tanh and sigmoid widen the
// input to float64, run the mat slab function over it and narrow the result.
type actInfer struct {
	kind actKind
}

// actScratch is an activation's per-workspace output and, for tanh and
// sigmoid, its float64 slab.
type actScratch struct {
	y    *mat32.Matrix
	wide []float64
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
	sc, ok := (*slot).(*actScratch)
	if !ok || sc.y.Rows() != x.Rows() || sc.y.Cols() != x.Cols() {
		sc = &actScratch{y: mat32.New(x.Rows(), x.Cols())}
		*slot = sc
	}
	if a.kind == actReLU {
		return sc.y, mat32.ReLUInto(sc.y, x)
	}
	xd := x.Data()
	sc.wide = growF64(sc.wide, len(xd))
	wide, yd := sc.wide[:len(xd)], sc.y.Data()[:len(xd)]
	for i, v := range xd {
		wide[i] = float64(v)
	}
	if a.kind == actTanh {
		mat.Tanh(wide, wide)
	} else {
		mat.Sigmoid(wide, wide)
	}
	for i, v := range wide {
		yd[i] = float32(v)
	}
	return sc.y, nil
}

// lstmInfer is the frozen recurrent layer. Each step widens the packed
// float32 pre-activations into one gate-major float64 slab, activates it
// with three mat slab calls, and runs the cell and hidden updates in
// float32, taking tanh(c) from one more slab call.
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
	gates  []float64     // activated gates [i | f | g | o], each batch × hidden
	tc     []float64     // tanh(c) (batch × hidden)
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
			gates: make([]float64, 4*batch*H),
			tc:    make([]float64, batch*H),
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
		// The pre-activations (x·Wx + h·Wh) + b, added in float32, go
		// gate by gate into the float64 slab. zh was computed from the
		// previous h above, so updating h and c in place is safe.
		bH, br := batch*H, l.b.Row(0)
		for i := 0; i < batch; i++ {
			zr, zhr := ws.z.Row(i), ws.zh.Row(i)
			for q := 0; q < 4; q++ {
				lo := q * H
				gr := ws.gates[q*bH+i*H:][:H]
				xr, hr, bq := zr[lo:][:H], zhr[lo:][:H], br[lo:][:H]
				for j := range gr {
					gr[j] = float64((xr[j] + hr[j]) + bq[j])
				}
			}
		}
		mat.Sigmoid(ws.gates[:2*bH], ws.gates[:2*bH])
		mat.Tanh(ws.gates[2*bH:3*bH], ws.gates[2*bH:3*bH])
		mat.Sigmoid(ws.gates[3*bH:], ws.gates[3*bH:])
		ig, fg, gg, og := ws.gates[:bH], ws.gates[bH:][:bH], ws.gates[2*bH:][:bH], ws.gates[3*bH:][:bH]
		cd, hd, tc := ws.c.Data()[:bH], ws.h.Data()[:bH], ws.tc[:bH]
		for k := range cd {
			cv := float32(float32(fg[k])*cd[k]) + float32(float32(ig[k])*float32(gg[k]))
			cd[k] = cv
			tc[k] = float64(cv)
		}
		mat.Tanh(tc, tc)
		for k := range hd {
			hd[k] = float32(og[k]) * float32(tc[k])
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
