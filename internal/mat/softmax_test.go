package mat_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// TestSoftmaxProperties checks nn.Softmax, whose exponentials are one
// mat.Exp slab, on every kernel path: each row sums to 1, the argmax of
// every row is kept, and logits of 1000–1002 give finite probabilities
// with the same bits as logits of 0–2, since only differences from the
// row maximum reach the exponential.
func TestSoftmaxProperties(t *testing.T) {
	mat.KernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		logits := mat.New(64, 7)
		d := logits.Data()
		for i := range d {
			d[i] = 10 * rng.NormFloat64()
		}
		probs := nn.Softmax(logits)
		for i := 0; i < probs.Rows(); i++ {
			var sum float64
			for _, p := range probs.Row(i) {
				sum += p
			}
			if math.Abs(sum-1) > 1e-14 {
				t.Fatalf("row %d sums to %v, want 1", i, sum)
			}
			if got, want := probs.ArgmaxRow(i), logits.ArgmaxRow(i); got != want {
				t.Fatalf("row %d: argmax %d, want the logits' argmax %d", i, got, want)
			}
		}

		big, err := mat.FromRows([][]float64{{1000, 1001, 1002}, {1002, 1000, 1001}})
		if err != nil {
			t.Fatal(err)
		}
		small, err := mat.FromRows([][]float64{{0, 1, 2}, {2, 0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		pb, ps := nn.Softmax(big), nn.Softmax(small)
		for i, p := range pb.Data() {
			if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 || p >= 1 {
				t.Fatalf("softmax of logits 1000–1002: probability %v", p)
			}
			if math.Float64bits(p) != math.Float64bits(ps.Data()[i]) {
				t.Fatalf("softmax of logits 1000–1002: element %d = %v, want %v as for logits 0–2", i, p, ps.Data()[i])
			}
		}
	})
}
