package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/mat32"
)

// freezeTestModels builds one randomly initialized model per supported
// architecture shape, including both LSTM stack positions (return-sequences
// and last-step) and a sigmoid/tanh stack the monitors don't use but Freeze
// must still support.
func freezeTestModels(t *testing.T, rng *rand.Rand) map[string]*Model {
	t.Helper()
	models := make(map[string]*Model)

	mlp, err := NewMLPClassifier(rng, 9, MLPConfig{Hidden1: 24, Hidden2: 16})
	if err != nil {
		t.Fatal(err)
	}
	models["mlp"] = mlp

	lstm, err := NewLSTMClassifier(rng, 5, LSTMConfig{Hidden1: 12, Hidden2: 8, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	models["lstm"] = lstm

	sub, err := NewSubstituteMLP(rng, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	models["substitute"] = sub

	act, err := NewModel(6, nil,
		NewDense(rng, 6, 10),
		NewTanh(),
		NewDense(rng, 10, 8),
		NewSigmoid(),
		NewDense(rng, 8, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	models["tanh_sigmoid"] = act

	return models
}

func randBatch(rng *rand.Rand, rows, cols int) *mat.Matrix {
	x := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return x
}

// TestFreezeMatchesInfer is the property test behind the f32 path: for every
// architecture, the frozen twin's logits agree with the f64 Infer within
// float32 tolerance, and the argmax class agrees on every row.
func TestFreezeMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, m := range freezeTestModels(t, rng) {
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: Freeze: %v", name, err)
		}
		if im.InputSize() != m.InputSize() || im.OutputSize() != m.OutputSize() {
			t.Fatalf("%s: frozen sizes %d→%d, want %d→%d", name,
				im.InputSize(), im.OutputSize(), m.InputSize(), m.OutputSize())
		}
		for _, batch := range []int{1, 3, 17} {
			x := randBatch(rng, batch, m.InputSize())
			want, err := m.Infer(x)
			if err != nil {
				t.Fatalf("%s: f64 Infer: %v", name, err)
			}
			x32 := mat32.FromF64(x)
			got, err := im.Logits(x32)
			if err != nil {
				t.Fatalf("%s: f32 Infer: %v", name, err)
			}
			for i := 0; i < batch; i++ {
				for j := 0; j < m.OutputSize(); j++ {
					w := want.At(i, j)
					g := float64(got.At(i, j))
					// Relative f32 tolerance: quantized weights plus f32
					// accumulation keep errors well inside 1e-3 relative at
					// these depths.
					tol := 1e-3 * (1 + math.Abs(w))
					if math.Abs(g-w) > tol {
						t.Fatalf("%s batch=%d logit (%d,%d): f32 %v vs f64 %v", name, batch, i, j, g, w)
					}
				}
				if got.ArgmaxRow(i) != want.ArgmaxRow(i) {
					t.Fatalf("%s batch=%d row %d: argmax %d vs %d", name, batch, i, got.ArgmaxRow(i), want.ArgmaxRow(i))
				}
			}

			classes := make([]int, batch)
			conf := make([]float64, batch)
			if err := im.ClassifyInto(x32, classes, conf); err != nil {
				t.Fatalf("%s: ClassifyInto: %v", name, err)
			}
			probs := Softmax(want)
			for i := 0; i < batch; i++ {
				if classes[i] != want.ArgmaxRow(i) {
					t.Fatalf("%s row %d: ClassifyInto class %d, want %d", name, i, classes[i], want.ArgmaxRow(i))
				}
				if math.Abs(conf[i]-probs.At(i, classes[i])) > 1e-3 {
					t.Fatalf("%s row %d: confidence %v, want %v", name, i, conf[i], probs.At(i, classes[i]))
				}
			}
		}
	}
}

// TestFreezeSnapshotsWeights pins that Freeze copies weights: mutating the
// source model afterwards must not change frozen outputs.
func TestFreezeSnapshotsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := NewMLPClassifier(rng, 4, MLPConfig{Hidden1: 8, Hidden2: 6})
	if err != nil {
		t.Fatal(err)
	}
	im, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	x := mat32.FromF64(randBatch(rng, 2, 4))
	before, err := im.Logits(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		p.W.Scale(-3)
	}
	after, err := im.Logits(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range after.Data() {
		if v != before.Data()[i] {
			t.Fatal("frozen model changed after mutating the source weights")
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on; alloc
// pins skip because sync.Pool intentionally drops items under -race.
var raceEnabled bool

// TestInferModelZeroAlloc pins the steady-state allocation contract of the
// acceptance criteria: after warm-up, Infer and ClassifyInto allocate nothing.
func TestInferModelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	rng := rand.New(rand.NewSource(13))
	for name, m := range freezeTestModels(t, rng) {
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := mat32.FromF64(randBatch(rng, 16, m.InputSize()))
		dst := mat32.New(16, m.OutputSize())
		classes := make([]int, 16)
		conf := make([]float64, 16)
		// Warm up the pooled workspace at this batch size.
		if err := im.Infer(x, dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := im.Infer(x, dst); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: Infer allocates %v objects per run in steady state", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := im.ClassifyInto(x, classes, conf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: ClassifyInto allocates %v objects per run in steady state", name, allocs)
		}
	}
}

// TestInferModelConcurrent hammers one frozen model from many goroutines and
// checks every result against the serial answer — the workspace pool must keep
// them independent.
func TestInferModelConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, err := NewLSTMClassifier(rng, 3, LSTMConfig{Hidden1: 10, Hidden2: 6, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	im, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*mat32.Matrix, 8)
	want := make([]*mat32.Matrix, len(inputs))
	for i := range inputs {
		inputs[i] = mat32.FromF64(randBatch(rng, 1+i%3, m.InputSize()))
		want[i], err = im.Logits(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				idx := (g + iter) % len(inputs)
				got, err := im.Logits(inputs[idx])
				if err != nil {
					errs <- err
					return
				}
				for i, v := range got.Data() {
					if v != want[idx].Data()[i] {
						t.Errorf("goroutine %d: result %d diverged", g, idx)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFreezeUnsupportedLayer ensures Freeze fails loudly instead of silently
// skipping a layer it cannot quantize.
func TestFreezeUnsupportedLayer(t *testing.T) {
	m, err := NewModel(3, nil, fakeLayer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Freeze(); err == nil {
		t.Fatal("Freeze accepted an unsupported layer")
	}
}

type fakeLayer struct{}

func (fakeLayer) Name() string                                { return "fake" }
func (fakeLayer) OutputSize(in int) (int, error)              { return in, nil }
func (fakeLayer) Forward(x *mat.Matrix) (*mat.Matrix, error)  { return x, nil }
func (fakeLayer) Infer(x *mat.Matrix) (*mat.Matrix, error)    { return x, nil }
func (fakeLayer) Backward(g *mat.Matrix) (*mat.Matrix, error) { return g, nil }
func (fakeLayer) CloneLayer() Layer                           { return fakeLayer{} }
func (fakeLayer) Replicate() Layer                            { return fakeLayer{} }
func (fakeLayer) Params() []*Param                            { return nil }
