package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/mat32"
	"repro/internal/monitor"
)

// probeReps is how many times each layer probe repeats; medians are reported.
const probeReps = 7

// probeRows is the batch the nn probes push through a trained model.
const probeRows = 256

// probeLayers times each layer's public Forward and Backward on a clone of
// the monitor's model over one probeRows batch of test inputs, and the
// model's InputGradient (what FGSM pays per batch).
func probeLayers(env *runEnv, arch string, m *monitor.MLMonitor, test *dataset.Dataset) error {
	n := probeRows
	if test.Len() < n {
		n = test.Len()
	}
	x, err := m.InputMatrix(test.Samples[:n])
	if err != nil {
		return err
	}
	labels := test.Labels()[:n]
	know := test.Knowledge()[:n]
	model, err := m.Model().Clone()
	if err != nil {
		return err
	}
	layers := model.Layers()
	fwd := make([][]float64, len(layers))
	bwd := make([][]float64, len(layers))
	grads := make([]float64, 0, probeReps)
	parent := env.tr.begin("nn.probe."+arch, 0, "", 0)
	defer env.tr.end(parent)
	for rep := 0; rep < probeReps; rep++ {
		out := x
		for i, l := range layers {
			sp := env.tr.begin(fmt.Sprintf("nn.%s.%d-%s.fwd", arch, i, l.Name()), parent, "", 0)
			t0 := time.Now()
			out, err = l.Forward(out)
			fwd[i] = append(fwd[i], ms(time.Since(t0)))
			env.tr.end(sp)
			if err != nil {
				return err
			}
		}
		_, grad, err := model.Loss().Compute(out, labels, know)
		if err != nil {
			return err
		}
		for i := len(layers) - 1; i >= 0; i-- {
			sp := env.tr.begin(fmt.Sprintf("nn.%s.%d-%s.bwd", arch, i, layers[i].Name()), parent, "", 0)
			t0 := time.Now()
			grad, err = layers[i].Backward(grad)
			bwd[i] = append(bwd[i], ms(time.Since(t0)))
			env.tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp := env.tr.begin("nn."+arch+".input_grad", parent, "", 0)
		d, err := timeIt(func() error { _, err := model.InputGradient(x, labels, know); return err })
		env.tr.end(sp)
		if err != nil {
			return err
		}
		grads = append(grads, ms(d))
	}
	for i, l := range layers {
		env.set(fmt.Sprintf("nn.%s.%d-%s.fwd_ms", arch, i, l.Name()), median(fwd[i]))
		env.set(fmt.Sprintf("nn.%s.%d-%s.bwd_ms", arch, i, l.Name()), median(bwd[i]))
	}
	env.set("nn."+arch+".input_grad_ms", median(grads))
	return nil
}

// rate runs fn back to back for at least 20ms, five times, and returns the
// median of flops-per-call ÷ seconds-per-call in GFLOP/s.
func rate(flops float64, fn func()) float64 {
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			fn()
			calls++
		}
		rates = append(rates, flops*float64(calls)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// probeMat times the three f64 kernels the LSTM calls once per step and
// 32-row training block, at the recurrent shapes of the first layer
// (hidden width h, four gates).
func probeMat(env *runEnv, h int) {
	const b = 32
	g := 4 * h
	fill := func(m *mat.Matrix) *mat.Matrix {
		d := m.Data()
		for i := range d {
			d[i] = float64(i%7) / 7
		}
		return m
	}
	hPrev, wh, z := fill(mat.New(b, h)), fill(mat.New(h, g)), mat.New(b, g)
	dz, dh, gw := fill(mat.New(b, g)), mat.New(b, h), mat.New(h, g)
	flops := 2 * float64(b*h*g)
	sp := env.tr.begin("mat.probe", 0, "", 0)
	defer env.tr.end(sp)
	env.set("mat.matmul.gflops", rate(flops, func() { _ = mat.MatMulInto(z, hPrev, wh) }))
	env.set("mat.matmul_t.gflops", rate(flops, func() { _ = mat.MatMulTInto(dh, dz, wh) }))
	env.set("mat.tmatmul_add.gflops", rate(flops, func() { _ = mat.TMatMulAddInto(gw, hPrev, dz) }))
}

// probeF32 times the serving engine: the f32 kernel at the LSTM step shape
// of a 32-row batch, and f32 LSTM classification of 32 test rows.
func probeF32(env *runEnv, m *monitor.MLMonitor, test *dataset.Dataset, h int) error {
	const b = 32
	g := 4 * h
	a, w, z := mat32.New(b, h), mat32.New(h, g), mat32.New(b, g)
	for i := range a.Data() {
		a.Data()[i] = float32(i%5) / 5
	}
	for i := range w.Data() {
		w.Data()[i] = float32(i%3) / 3
	}
	sp := env.tr.begin("mat32.probe", 0, "", 0)
	env.set("mat32.matmul.gflops", rate(2*float64(b*h*g), func() { _ = mat32.MatMulInto(z, a, w) }))
	env.tr.end(sp)

	if test.Len() < b {
		return fmt.Errorf("test split has %d rows, want ≥ %d", test.Len(), b)
	}
	x, err := m.InputMatrix(test.Samples[:b])
	if err != nil {
		return err
	}
	sp = env.tr.begin("nn.lstm.infer_f32", 0, "", 0)
	defer env.tr.end(sp)
	var per []float64
	for rep := 0; rep < 5; rep++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			if _, err := m.PredictClassesF32(x); err != nil {
				return err
			}
			calls++
		}
		per = append(per, float64(time.Since(t0).Microseconds())/float64(calls*b))
	}
	env.set("nn.lstm.infer_f32_us_per_row", median(per))
	return nil
}

// calibGFLOPS is the host calibration: a fixed naive f64 matrix product
// written here rather than in mat, so kernel changes cannot move it. A
// change in it between two runs is host drift, not a code change.
func calibGFLOPS() float64 {
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%11) / 11
		b[i] = float64(i%13) / 13
	}
	return rate(2*n*n*n, func() {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	})
}
