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
// input gradients of adversarial training) runs through this package, so
// a kernel change that moves a single rounding anywhere fails here instead
// of silently invalidating cached monitors. The widths are chosen so the
// products end in narrow strips and masked tails as well as full strips,
// and every kernel path (AVX-512, AVX and pure Go) must reproduce the
// digests, which were computed before any SIMD path existed.
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
		}, "6a7d8c4af91cee87bb81cf0d9738dcf2aa3643bf5a4f5bdfb2b94b5bd5bb70bb"},
		{"lstm_custom_advtrain", dataset.T1DS, monitor.TrainConfig{
			Arch: monitor.ArchLSTM, Semantic: true, AdversarialEps: 0.05,
			Epochs: 2, Hidden1: 20, Hidden2: 10, Seed: 11,
		}, "b5ca58b184291c3e3aa46b7bc969b0164934bbe89be0d2b882b05ca119aa0b3e"},
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
