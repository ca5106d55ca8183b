package mat_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/monitor"
)

// TestTrainedMonitorDigestsPinned trains one small seeded monitor per
// architecture and pins the SHA-256 of its saved bytes. Every f64 product
// of training (forward, weight gradients, input gradients, and the FGSM
// input gradients of adversarial training) and every exp, sigmoid and tanh
// runs through this package, so a kernel change that moves a single
// rounding anywhere fails here instead of silently invalidating cached
// monitors. The widths are chosen so the products and activation slabs end
// in narrow strips and masked tails as well as full strips, and every
// kernel path (AVX-512, AVX and pure Go) must reproduce the digests. They
// were re-pinned with monitor.FormatVersion 3, when the activations left
// math.Exp and math.Tanh, whose amd64 results depend on the CPU's FMA.
func TestTrainedMonitorDigestsPinned(t *testing.T) {
	mat.KernelPaths(t, testTrainedMonitorDigests)
}

func testTrainedMonitorDigests(t *testing.T) {
	cases := []struct {
		name string
		sim  dataset.Simulator
		cfg  monitor.TrainConfig
		want string
	}{
		{"mlp_custom_advtrain", dataset.Glucosym, monitor.TrainConfig{
			Arch: monitor.ArchMLP, Semantic: true, AdversarialEps: 0.05,
			Epochs: 3, Hidden1: 30, Hidden2: 14, Seed: 11,
		}, "3c73beb7aa3e200baba7e19c5ae90ea8475305c98bec579d6bb622da16976cc4"},
		{"lstm_custom_advtrain", dataset.T1DS, monitor.TrainConfig{
			Arch: monitor.ArchLSTM, Semantic: true, AdversarialEps: 0.05,
			Epochs: 2, Hidden1: 20, Hidden2: 10, Seed: 11,
		}, "a6859d51c2c6bade3861aa8a20d77e056284c5e0bad03498f8a12e54cabac6da"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.Generate(dataset.CampaignConfig{
				Simulator: tc.sim, Profiles: 4, EpisodesPerProfile: 2, Steps: 100, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			train, _, err := ds.Split(0.75)
			if err != nil {
				t.Fatal(err)
			}
			m, err := monitor.Train(train, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("saved monitor SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}
