package attack

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
)

// FeatureSqueezer implements the adversarial-example detector of the paper's
// reference [29] (Xu, Evans, Qi — "Feature Squeezing", NDSS'18), adapted to
// normalized time-series inputs: compare the model's prediction on the
// original input against its prediction on "squeezed" (reduced-precision
// and smoothed) variants; a large disagreement in the predicted
// distributions flags the input as adversarial.
type FeatureSqueezer struct {
	// BitDepth quantizes each (normalized) feature to 2^BitDepth levels over
	// [-QuantRange, QuantRange] (default 5 bits over ±4).
	BitDepth   int
	QuantRange float64
	// SmoothWidth applies a moving average of this many steps along the
	// time axis of recurrent windows; featuresPerStep 0 (or width ≤ 1)
	// disables smoothing.
	SmoothWidth     int
	FeaturesPerStep int
	// Threshold is the L1 distance between prediction distributions above
	// which an input is flagged (default 0.5, following the paper's order
	// of magnitude).
	Threshold float64
}

// NewFeatureSqueezer returns a squeezer with the standard configuration.
func NewFeatureSqueezer() *FeatureSqueezer {
	return &FeatureSqueezer{BitDepth: 5, QuantRange: 4, Threshold: 0.5}
}

func (s *FeatureSqueezer) fill() {
	if s.BitDepth == 0 {
		s.BitDepth = 5
	}
	if s.QuantRange == 0 {
		s.QuantRange = 4
	}
	if s.Threshold == 0 {
		s.Threshold = 0.5
	}
}

// Squeeze returns the reduced-precision (and optionally time-smoothed) copy
// of x.
func (s *FeatureSqueezer) Squeeze(x *mat.Matrix) *mat.Matrix {
	s.fill()
	levels := math.Ldexp(1, s.BitDepth) - 1
	out := x.Apply(func(v float64) float64 {
		c := (v + s.QuantRange) / (2 * s.QuantRange) // → [0,1]
		if c < 0 {
			c = 0
		}
		if c > 1 {
			c = 1
		}
		q := math.Round(c*levels) / levels
		return q*2*s.QuantRange - s.QuantRange
	})
	if s.SmoothWidth > 1 && s.FeaturesPerStep > 0 && out.Cols()%s.FeaturesPerStep == 0 {
		out = s.smoothTime(out)
	}
	return out
}

// smoothTime applies a centered moving average along the step axis for each
// per-step feature.
func (s *FeatureSqueezer) smoothTime(x *mat.Matrix) *mat.Matrix {
	steps := x.Cols() / s.FeaturesPerStep
	half := s.SmoothWidth / 2
	out := x.Clone()
	for i := 0; i < x.Rows(); i++ {
		for f := 0; f < s.FeaturesPerStep; f++ {
			for st := 0; st < steps; st++ {
				var sum float64
				var n int
				for k := st - half; k <= st+half; k++ {
					if k < 0 || k >= steps {
						continue
					}
					sum += x.At(i, k*s.FeaturesPerStep+f)
					n++
				}
				out.Set(i, st*s.FeaturesPerStep+f, sum/float64(n))
			}
		}
	}
	return out
}

// Detect scores each input row: the L1 distance between the model's class
// distribution on the raw input and on the squeezed input, and whether it
// exceeds the threshold.
func (s *FeatureSqueezer) Detect(model *nn.Model, x *mat.Matrix) (scores []float64, flagged []bool, err error) {
	s.fill()
	orig, err := model.Predict(x)
	if err != nil {
		return nil, nil, fmt.Errorf("attack: squeeze detect: %w", err)
	}
	sq, err := model.Predict(s.Squeeze(x))
	if err != nil {
		return nil, nil, fmt.Errorf("attack: squeeze detect: %w", err)
	}
	scores = make([]float64, x.Rows())
	flagged = make([]bool, x.Rows())
	for i := 0; i < x.Rows(); i++ {
		var d float64
		for j := 0; j < orig.Cols(); j++ {
			d += math.Abs(orig.At(i, j) - sq.At(i, j))
		}
		scores[i] = d
		flagged[i] = d > s.Threshold
	}
	return scores, flagged, nil
}

// DetectionRates evaluates the detector: the true-positive rate on
// adversarial inputs and the false-positive rate on clean inputs.
func (s *FeatureSqueezer) DetectionRates(model *nn.Model, clean, adversarial *mat.Matrix) (tpr, fpr float64, err error) {
	_, cleanFlags, err := s.Detect(model, clean)
	if err != nil {
		return 0, 0, err
	}
	_, advFlags, err := s.Detect(model, adversarial)
	if err != nil {
		return 0, 0, err
	}
	fp, tp := 0, 0
	for _, f := range cleanFlags {
		if f {
			fp++
		}
	}
	for _, f := range advFlags {
		if f {
			tp++
		}
	}
	if len(advFlags) > 0 {
		tpr = float64(tp) / float64(len(advFlags))
	}
	if len(cleanFlags) > 0 {
		fpr = float64(fp) / float64(len(cleanFlags))
	}
	return tpr, fpr, nil
}
