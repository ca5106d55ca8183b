package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// LSTM is a single recurrent layer unrolled over a fixed number of steps.
//
// Inputs and outputs are flattened over time: the input is a
// (batch × steps·inputSize) matrix whose columns are grouped step-major
// ([x_1 | x_2 | … | x_T]); the output is (batch × steps·hidden) when
// ReturnSequences is set (for stacking) or (batch × hidden) holding the final
// hidden state otherwise.
//
// Gate layout inside the packed weight matrices is [i | f | g | o].
type LSTM struct {
	inputSize  int
	hidden     int
	steps      int
	returnSeqs bool

	wx *Param // inputSize × 4·hidden
	wh *Param // hidden × 4·hidden
	b  *Param // 1 × 4·hidden

	// ws is the training workspace: every per-step activation and backward
	// temporary, allocated once per batch size and reused across batches
	// (the per-model workspace that kills the per-batch allocations). wss
	// retains one workspace per recent batch size so an epoch alternating
	// between full and short final blocks doesn't rebuild the whole set on
	// every flip. The concurrency-safe Infer path never touches them.
	ws  *lstmScratch
	wss []*lstmScratch
	// cache marks the workspace as holding a recorded forward pass.
	cache *lstmScratch
	// wxT and whT hold Wxᵀ and Whᵀ, transposed once per Backward so every
	// step's input and recurrent gradient runs the row-update kernel.
	wxT, whT *mat.Matrix
}

// lstmScratch holds the unrolled activations Backward consumes plus all
// backward temporaries, sized for one batch shape.
type lstmScratch struct {
	batch int

	// Forward state, per step.
	xs  []*mat.Matrix // inputs (batch × inputSize)
	is  []*mat.Matrix // gate activations (batch × hidden) each
	fs  []*mat.Matrix
	gs  []*mat.Matrix
	os  []*mat.Matrix
	cs  []*mat.Matrix // cell states, cs[t] is c_t (t from 0)
	hs  []*mat.Matrix // hidden states
	tcs []*mat.Matrix // tanh(c_t)

	z, zh  *mat.Matrix // pre-activation temporaries (batch × 4·hidden)
	h0, c0 *mat.Matrix // step-0 previous states; always zero, never written
	seqOut *mat.Matrix // stacked hidden states when returnSeqs

	// Backward temporaries.
	dz       *mat.Matrix // gate pre-activation grads (batch × 4·hidden)
	dhA, dhB *mat.Matrix // recurrent / staged hidden-state grads
	dcA, dcB *mat.Matrix // cell-state grads (ping-pong)
	dxt      *mat.Matrix // per-step input grad
	gradX    *mat.Matrix // full input grad (batch × steps·inputSize)
}

var _ Layer = (*LSTM)(nil)

// NewLSTM constructs an LSTM layer. Forget-gate biases start at 1, the
// standard trick that keeps early training gradients alive.
func NewLSTM(rng *rand.Rand, inputSize, hidden, steps int, returnSeqs bool) *LSTM {
	l := &LSTM{
		inputSize:  inputSize,
		hidden:     hidden,
		steps:      steps,
		returnSeqs: returnSeqs,
		wx:         newParam("Wx", mat.GlorotUniform(rng, inputSize, 4*hidden, inputSize, hidden)),
		wh:         newParam("Wh", mat.RecurrentUniform(rng, hidden, 4*hidden)),
		b:          newParam("b", mat.New(1, 4*hidden)),
	}
	for j := hidden; j < 2*hidden; j++ { // forget gate block
		l.b.W.Set(0, j, 1)
	}
	return l
}

// newLSTMZero builds an LSTM layer with zero-valued parameters (no forget-
// gate bias either), for callers that overwrite every weight immediately
// (deserialization). Unlike NewLSTM it draws no random numbers.
func newLSTMZero(inputSize, hidden, steps int, returnSeqs bool) *LSTM {
	return &LSTM{
		inputSize:  inputSize,
		hidden:     hidden,
		steps:      steps,
		returnSeqs: returnSeqs,
		wx:         newParam("Wx", mat.New(inputSize, 4*hidden)),
		wh:         newParam("Wh", mat.New(hidden, 4*hidden)),
		b:          newParam("b", mat.New(1, 4*hidden)),
	}
}

// Name implements Layer.
func (l *LSTM) Name() string { return "lstm" }

// Steps returns the unroll length.
func (l *LSTM) Steps() int { return l.steps }

// Hidden returns the hidden-state width.
func (l *LSTM) Hidden() int { return l.hidden }

// InputSize returns the per-step feature count.
func (l *LSTM) InputSize() int { return l.inputSize }

// ReturnSequences reports whether the layer emits all hidden states.
func (l *LSTM) ReturnSequences() bool { return l.returnSeqs }

// OutputSize implements Layer.
func (l *LSTM) OutputSize(inputSize int) (int, error) {
	if inputSize != l.steps*l.inputSize {
		return 0, fmt.Errorf("nn: lstm expects %d (=%d steps × %d features) inputs, got %d",
			l.steps*l.inputSize, l.steps, l.inputSize, inputSize)
	}
	if l.returnSeqs {
		return l.steps * l.hidden, nil
	}
	return l.hidden, nil
}

func newLSTMScratch(l *LSTM, batch int) *lstmScratch {
	H, T := l.hidden, l.steps
	perStep := func(cols int) []*mat.Matrix {
		ms := make([]*mat.Matrix, T)
		for t := range ms {
			ms[t] = mat.New(batch, cols)
		}
		return ms
	}
	ws := &lstmScratch{
		batch: batch,
		xs:    perStep(l.inputSize),
		is:    perStep(H),
		fs:    perStep(H),
		gs:    perStep(H),
		os:    perStep(H),
		cs:    perStep(H),
		hs:    perStep(H),
		tcs:   perStep(H),
		z:     mat.New(batch, 4*H),
		zh:    mat.New(batch, 4*H),
		h0:    mat.New(batch, H),
		c0:    mat.New(batch, H),
		dz:    mat.New(batch, 4*H),
		dhA:   mat.New(batch, H),
		dhB:   mat.New(batch, H),
		dcA:   mat.New(batch, H),
		dcB:   mat.New(batch, H),
		dxt:   mat.New(batch, l.inputSize),
		gradX: mat.New(batch, T*l.inputSize),
	}
	if l.returnSeqs {
		ws.seqOut = mat.New(batch, T*H)
	}
	return ws
}

// scratchFor returns the retained workspace for batch, building (and
// retaining, evicting the oldest beyond scratchShapes) on a miss.
func (l *LSTM) scratchFor(batch int) *lstmScratch {
	for _, ws := range l.wss {
		if ws.batch == batch {
			return ws
		}
	}
	ws := newLSTMScratch(l, batch)
	if len(l.wss) >= scratchShapes {
		copy(l.wss, l.wss[1:])
		l.wss[len(l.wss)-1] = ws
	} else {
		l.wss = append(l.wss, ws)
	}
	return ws
}

// Forward implements Layer: the unrolled recurrence, recording the per-step
// activations Backward consumes in the reusable workspace. The returned
// matrix is layer-owned scratch, valid until the next Forward on this layer.
func (l *LSTM) Forward(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm forward: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	ws := l.ws
	if ws == nil || ws.batch != batch {
		ws = l.scratchFor(batch)
		l.ws = ws
	}
	H := l.hidden
	h, cell := ws.h0, ws.c0
	for t := 0; t < l.steps; t++ {
		xt := ws.xs[t]
		if err := mat.SliceColsInto(xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm forward step %d: %w", t, err)
		}
		if err := mat.MatMulInto(ws.z, xt, l.wx.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wx step %d: %w", t, err)
		}
		if err := mat.MatMulInto(ws.zh, h, l.wh.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wh step %d: %w", t, err)
		}

		lstmGates(ws.is[t], ws.fs[t], ws.gs[t], ws.os[t], ws.z, ws.zh, l.b.W, H)
		lstmCell(ws.cs[t], ws.tcs[t], ws.hs[t], cell, ws.is[t], ws.fs[t], ws.gs[t], ws.os[t])
		cell, h = ws.cs[t], ws.hs[t]

		if l.returnSeqs {
			if err := ws.seqOut.SetCols(t*H, h); err != nil {
				return nil, err
			}
		}
	}
	l.cache = ws
	if l.returnSeqs {
		return ws.seqOut, nil
	}
	return ws.hs[l.steps-1], nil
}

// Infer implements Layer: the unrolled forward pass without the backward
// cache or shared scratch, so concurrent goroutines can share one trained
// layer. It performs the exact arithmetic of Forward (the same products,
// lstmGates and lstmCell), on temporaries allocated once per call: every
// step overwrites them, and the cell and hidden states update in place.
func (l *LSTM) Infer(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols() != l.steps*l.inputSize {
		return nil, fmt.Errorf("nn: lstm forward: %d input cols, want %d", x.Cols(), l.steps*l.inputSize)
	}
	batch := x.Rows()
	H := l.hidden
	h := mat.New(batch, H)
	cell := mat.New(batch, H)
	xt := mat.New(batch, l.inputSize)
	z, zh := mat.New(batch, 4*H), mat.New(batch, 4*H)
	it, ft, gt, ot := mat.New(batch, H), mat.New(batch, H), mat.New(batch, H), mat.New(batch, H)
	tc := mat.New(batch, H)
	var seqOut *mat.Matrix
	if l.returnSeqs {
		seqOut = mat.New(batch, l.steps*H)
	}
	for t := 0; t < l.steps; t++ {
		if err := mat.SliceColsInto(xt, x, t*l.inputSize, (t+1)*l.inputSize); err != nil {
			return nil, fmt.Errorf("nn: lstm forward step %d: %w", t, err)
		}
		if err := mat.MatMulInto(z, xt, l.wx.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wx step %d: %w", t, err)
		}
		if err := mat.MatMulInto(zh, h, l.wh.W); err != nil {
			return nil, fmt.Errorf("nn: lstm forward Wh step %d: %w", t, err)
		}

		lstmGates(it, ft, gt, ot, z, zh, l.b.W, H)
		lstmCell(cell, tc, h, cell, it, ft, gt, ot)

		if l.returnSeqs {
			if err := seqOut.SetCols(t*H, h); err != nil {
				return nil, err
			}
		}
	}
	if l.returnSeqs {
		return seqOut, nil
	}
	return h, nil
}

// CloneLayer implements Layer.
func (l *LSTM) CloneLayer() Layer {
	return &LSTM{
		inputSize:  l.inputSize,
		hidden:     l.hidden,
		steps:      l.steps,
		returnSeqs: l.returnSeqs,
		wx:         cloneParam(l.wx),
		wh:         cloneParam(l.wh),
		b:          cloneParam(l.b),
	}
}

// Replicate implements Layer: shared weights, private workspace and
// gradients.
func (l *LSTM) Replicate() Layer {
	return &LSTM{
		inputSize:  l.inputSize,
		hidden:     l.hidden,
		steps:      l.steps,
		returnSeqs: l.returnSeqs,
		wx:         shareParam(l.wx),
		wh:         shareParam(l.wh),
		b:          shareParam(l.b),
	}
}

// lstmGates forms the packed pre-activations (x·Wx + h·Wh) + b from the
// two products zx = x·Wx and zh = h·Wh and the bias row b, scattering each
// gate block of [i | f | g | o] (batch × 4·H) into its own batch × H gate
// matrix, then activates each gate matrix in one slab call: sigmoid on i,
// f and o, tanh on g.
func lstmGates(i, f, g, o, zx, zh, b *mat.Matrix, H int) {
	gates := [4]*mat.Matrix{i, f, g, o}
	br := b.Row(0)
	for r := 0; r < zx.Rows(); r++ {
		zxr, zhr := zx.Row(r), zh.Row(r)
		for q, gate := range gates {
			lo := q * H
			gr, xr, hr, bq := gate.Row(r)[:H], zxr[lo:lo+H], zhr[lo:lo+H], br[lo:lo+H]
			for j := range gr {
				gr[j] = (xr[j] + hr[j]) + bq[j]
			}
		}
	}
	mat.Sigmoid(i.Data(), i.Data())
	mat.Sigmoid(f.Data(), f.Data())
	mat.Tanh(g.Data(), g.Data())
	mat.Sigmoid(o.Data(), o.Data())
}

// lstmCell is one step's state update over whole batch × H slabs:
// c = f⊙cPrev + i⊙g, tc = tanh(c) and h = o⊙tc. c may alias cPrev (each
// element is read before it is written).
func lstmCell(c, tc, h, cPrev, i, f, g, o *mat.Matrix) {
	cd := c.Data()
	n := len(cd)
	cpd, id, fd, gd := cPrev.Data()[:n], i.Data()[:n], f.Data()[:n], g.Data()[:n]
	for j := range cd {
		cd[j] = float64(fd[j]*cpd[j]) + float64(id[j]*gd[j])
	}
	mat.Tanh(tc.Data(), cd)
	hd, od, tcd := h.Data()[:n], o.Data()[:n], tc.Data()[:n]
	for j := range hd {
		hd[j] = od[j] * tcd[j]
	}
}

// Backward implements Layer. The returned gradient is layer-owned scratch,
// valid until the next Forward/Backward on this layer.
func (l *LSTM) Backward(gradOut *mat.Matrix) (*mat.Matrix, error) {
	return l.backward(gradOut, true)
}

// backward runs backpropagation through time, accumulating the parameter
// gradients and, with inputGrad, returning the gradient with respect to
// every step's input.
func (l *LSTM) backward(gradOut *mat.Matrix, inputGrad bool) (*mat.Matrix, error) {
	ws := l.cache
	if ws == nil {
		return nil, ErrNotReady
	}
	H, batch := l.hidden, ws.batch

	wantCols := H
	if l.returnSeqs {
		wantCols = l.steps * H
	}
	if gradOut.Rows() != batch || gradOut.Cols() != wantCols {
		return nil, fmt.Errorf("nn: lstm backward: grad %dx%d, want %dx%d",
			gradOut.Rows(), gradOut.Cols(), batch, wantCols)
	}

	if l.wxT == nil {
		l.wxT = mat.New(4*H, l.inputSize)
		l.whT = mat.New(4*H, H)
	}
	if inputGrad {
		if err := mat.TransposeInto(l.wxT, l.wx.W); err != nil {
			return nil, err
		}
	}
	if err := mat.TransposeInto(l.whT, l.wh.W); err != nil {
		return nil, err
	}

	gradX := ws.gradX
	dhNext, dhStage := ws.dhA, ws.dhB
	dcNext, dcPrev := ws.dcA, ws.dcB
	dhNext.Zero()
	dcNext.Zero()
	dz := ws.dz

	for t := l.steps - 1; t >= 0; t-- {
		// dh = upstream output grad at step t (if any) + recurrent grad.
		dh := dhNext
		if l.returnSeqs {
			if err := mat.SliceColsInto(dhStage, gradOut, t*H, (t+1)*H); err != nil {
				return nil, err
			}
			if err := dhStage.AddInPlace(dhNext); err != nil {
				return nil, err
			}
			dh = dhStage
		} else if t == l.steps-1 {
			if err := dhStage.CopyFrom(gradOut); err != nil {
				return nil, err
			}
			if err := dhStage.AddInPlace(dhNext); err != nil {
				return nil, err
			}
			dh = dhStage
		}

		cPrev := ws.c0
		if t > 0 {
			cPrev = ws.cs[t-1]
		}

		for i := 0; i < batch; i++ {
			dhr, dcr := dh.Row(i), dcNext.Row(i)
			ir, fr, gr, or := ws.is[t].Row(i), ws.fs[t].Row(i), ws.gs[t].Row(i), ws.os[t].Row(i)
			tcr, cpr := ws.tcs[t].Row(i), cPrev.Row(i)
			dzr := dz.Row(i)
			dcpr := dcPrev.Row(i)
			for j := 0; j < H; j++ {
				// Total cell gradient: from h gate and from future cell.
				dc := dcr[j] + dhr[j]*or[j]*(1-tcr[j]*tcr[j])
				do := dhr[j] * tcr[j]
				di := dc * gr[j]
				df := dc * cpr[j]
				dg := dc * ir[j]
				// Pre-activation gradients.
				dzr[0*H+j] = di * ir[j] * (1 - ir[j])
				dzr[1*H+j] = df * fr[j] * (1 - fr[j])
				dzr[2*H+j] = dg * (1 - gr[j]*gr[j])
				dzr[3*H+j] = do * or[j] * (1 - or[j])
				dcpr[j] = dc * fr[j]
			}
		}

		// Parameter gradients, accumulated straight into the shared buffers.
		if err := mat.TMatMulAddInto(l.wx.G, ws.xs[t], dz); err != nil {
			return nil, err
		}
		hPrev := ws.h0
		if t > 0 {
			hPrev = ws.hs[t-1]
		}
		if err := mat.TMatMulAddInto(l.wh.G, hPrev, dz); err != nil {
			return nil, err
		}
		if err := mat.AddSumRows(l.b.G, dz); err != nil {
			return nil, err
		}

		// Input and recurrent gradients. dhNext is read only by step t−1.
		if inputGrad {
			if err := mat.MatMulTPreInto(ws.dxt, dz, l.wxT); err != nil {
				return nil, err
			}
			if err := gradX.SetCols(t*l.inputSize, ws.dxt); err != nil {
				return nil, err
			}
		}
		if t > 0 {
			if err := mat.MatMulTPreInto(dhNext, dz, l.whT); err != nil {
				return nil, err
			}
		}
		dcNext, dcPrev = dcPrev, dcNext
	}
	if !inputGrad {
		return nil, nil
	}
	return gradX, nil
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }
