// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation at bench scale (see internal/experiments.Bench), plus
// ablation benches for the design choices called out in DESIGN.md. Each
// benchmark reports the headline numbers of its artifact via b.ReportMetric.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/mmapio"
	"repro/internal/monitor"
	"repro/internal/sweep"
)

// sensorOnlyFGSM crafts FGSM perturbations but zeroes the components on
// command dims, restricting the attack to sensor inputs.
func sensorOnlyFGSM(m *monitor.MLMonitor, labels []int, eps float64) experiments.Perturbation {
	return func(x *mat.Matrix) (*mat.Matrix, error) {
		adv, err := attack.FGSM(m.Model(), x, labels, eps)
		if err != nil {
			return nil, err
		}
		sensor := make(map[int]bool)
		for _, d := range dataset.SensorDimsMLP() {
			sensor[d] = true
		}
		for i := 0; i < adv.Rows(); i++ {
			for j := 0; j < adv.Cols(); j++ {
				if !sensor[j] {
					adv.Set(i, j, x.At(i, j))
				}
			}
		}
		return adv, nil
	}
}

func assets(b *testing.B) *experiments.Assets {
	b.Helper()
	a, err := experiments.Shared(experiments.Bench())
	if err != nil {
		b.Fatalf("build assets: %v", err)
	}
	return a
}

// benchSweep measures one full Fig 5 grid sweep (2 simulators × 4 ML
// monitors × 5 noise levels) at a fixed worker count. The monitor cache is
// warmed first so the benchmark isolates sweep execution from lazy training.
func benchSweep(b *testing.B, workers int) {
	a := assets(b)
	experiments.SetWorkers(workers)
	defer experiments.SetWorkers(0)
	if _, err := experiments.Fig5(a); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the single-worker baseline of the grid executor.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel fans the same grid out across all cores; comparing
// against BenchmarkSweepSerial measures the executor's speedup (the output
// is byte-identical — see experiments.TestSweepDeterminism).
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkWarmAssets measures a fully warm artifact-store pass: building
// assets and resolving all four ML monitors per simulator from disk, the
// work a repeat `apsexperiments` run pays instead of simulating and
// training. Compare against BenchmarkTable3 (which includes one lazy
// training pass on its first iteration) for the cache's leverage.
func BenchmarkWarmAssets(b *testing.B) {
	disk, err := artifact.NewDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	experiments.SetStore(disk)
	defer experiments.SetStore(nil)
	cfg := experiments.Bench()
	warmAll := func() {
		a, err := experiments.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, simu := range experiments.Simulators {
			for _, name := range experiments.MLMonitorNames {
				if _, err := a.Sims[simu].Monitor(name); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	warmAll() // cold pass populates the store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmAll()
	}
}

// BenchmarkTable3 regenerates Table III (clean-input ACC/F1 of all five
// monitors on both simulators).
func BenchmarkTable3(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row, _ := res.Row(dataset.Glucosym, "mlp")
			b.ReportMetric(row.F1, "mlp-glucosym-F1")
			row, _ = res.Row(dataset.T1DS, "lstm")
			b.ReportMetric(row.F1, "lstm-t1ds-F1")
		}
	}
}

// BenchmarkFig1Trace regenerates the Fig 1(b) annotated episode.
func BenchmarkFig1Trace(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1b(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.LeadSteps), "alert-lead-steps")
		}
	}
}

// BenchmarkFig2FGSMExample regenerates the single-sample FGSM flip of Fig 2.
func BenchmarkFig2FGSMExample(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.OrigConfidence, "unsafe-conf-%")
			b.ReportMetric(100*res.AdvConfidence, "safe-conf-%")
		}
	}
}

// BenchmarkFig3Boundary regenerates the MLP vs MLP-Custom decision
// boundaries of Fig 3.
func BenchmarkFig3Boundary(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.DisagreementFrac, "boundary-diff-%")
		}
	}
}

// BenchmarkFig4Histogram regenerates the noisy-input distributions of Fig 4.
func BenchmarkFig4Histogram(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5GaussianF1 regenerates the Gaussian-noise F1 sweeps of Fig 5.
func BenchmarkFig5GaussianF1(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := res.F1["glucosym"]["mlp"]
			b.ReportMetric(s[0]-s[len(s)-1], "mlp-glucosym-F1-drop")
		}
	}
}

// BenchmarkFig6PrecisionRecall regenerates the MLP precision/recall curves
// of Fig 6.
func BenchmarkFig6PrecisionRecall(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Recall["mlp"][len(res.Recall["mlp"])-1], "mlp-recall-at-max-noise")
		}
	}
}

// BenchmarkFig7AdvTrace regenerates the adversarial input traces of Fig 7.
func BenchmarkFig7AdvTrace(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8FGSMF1 regenerates the white-box FGSM F1 sweeps of Fig 8.
func BenchmarkFig8FGSMF1(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := res.F1["t1ds"]["lstm"]
			b.ReportMetric(s[0]-s[len(s)-1], "lstm-t1ds-F1-drop")
		}
	}
}

// BenchmarkFig9Heatmap regenerates both robustness-error heatmaps of Fig 9.
func BenchmarkFig9Heatmap(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9Both(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			isCustom := func(l string) bool { return strings.Contains(l, "Custom") }
			isBase := func(l string) bool { return !isCustom(l) }
			base := res.FGSM.MeanError(isBase)
			custom := res.FGSM.MeanError(isCustom)
			b.ReportMetric(base, "fgsm-base-err")
			b.ReportMetric(custom, "fgsm-custom-err")
			if base > 0 {
				b.ReportMetric(100*(base-custom)/base, "fgsm-err-reduction-%")
			}
		}
	}
}

// BenchmarkFig10BlackBox regenerates the black-box robustness heatmap of
// Fig 10.
func BenchmarkFig10BlackBox(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			all := func(string) bool { return true }
			b.ReportMetric(res.MeanError(all), "blackbox-mean-err")
		}
	}
}

// --- Ablation benches for DESIGN.md §6 -------------------------------------

// BenchmarkAblationSemanticWeight sweeps the semantic-loss weight w of Eq 2
// and reports the FGSM robustness error per setting.
func BenchmarkAblationSemanticWeight(b *testing.B) {
	a := assets(b)
	train := a.Sims[dataset.Glucosym].Train
	test := a.Sims[dataset.Glucosym].Test
	labels := test.Labels()
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{0, 0.25, 0.5, 1, 2} {
			m, err := monitor.Train(train, monitor.TrainConfig{
				Arch:           monitor.ArchMLP,
				Semantic:       w > 0,
				SemanticWeight: w,
				Epochs:         a.Config.Epochs,
				Hidden1:        a.Config.MLPHidden1,
				Hidden2:        a.Config.MLPHidden2,
				Seed:           a.Config.Seed + 17,
			})
			if err != nil {
				b.Fatal(err)
			}
			re, err := experiments.RobustnessError(m, test, experiments.FGSMPerturbation(m, labels, 0.1))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(re, "fgsm-err-w"+weightLabel(w))
			}
		}
	}
}

func weightLabel(w float64) string {
	switch w {
	case 0:
		return "0.00"
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.50"
	case 1:
		return "1.00"
	default:
		return "2.00"
	}
}

// BenchmarkAblationWindow sweeps the monitor window length W.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []int{4, 6, 8} {
			ds, err := dataset.Generate(dataset.CampaignConfig{
				Simulator:          dataset.Glucosym,
				Profiles:           4,
				EpisodesPerProfile: 2,
				Steps:              100,
				Window:             w,
				Seed:               5,
			})
			if err != nil {
				b.Fatal(err)
			}
			train, test, err := ds.Split(0.75)
			if err != nil {
				b.Fatal(err)
			}
			m, err := monitor.Train(train, monitor.TrainConfig{
				Arch: monitor.ArchMLP, Epochs: 8, Hidden1: 48, Hidden2: 24, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			c, err := experiments.Score(m, test, 12, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(c.F1(), "F1-window-"+string(rune('0'+w)))
			}
		}
	}
}

// BenchmarkAblationTolerance sweeps the δ of the Table II confusion matrix.
func BenchmarkAblationTolerance(b *testing.B) {
	a := assets(b)
	sa := a.Sims[dataset.Glucosym]
	m, err := sa.Monitor("mlp")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, delta := range []int{0, 6, 12, 24} {
			c, err := experiments.Score(m, sa.Test, delta, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(c.F1(), "F1-delta-"+itoa(delta))
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

// BenchmarkAblationFGSMSensorsOnly contrasts FGSM over all input dims (the
// paper's setting) with FGSM restricted to sensor dims.
func BenchmarkAblationFGSMSensorsOnly(b *testing.B) {
	a := assets(b)
	sa := a.Sims[dataset.Glucosym]
	m, err := sa.MLMonitor("mlp")
	if err != nil {
		b.Fatal(err)
	}
	labels := sa.Test.Labels()
	for i := 0; i < b.N; i++ {
		full, err := experiments.RobustnessError(m, sa.Test, experiments.FGSMPerturbation(m, labels, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		sensor, err := experiments.RobustnessError(m, sa.Test, sensorOnlyFGSM(m, labels, 0.1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(full, "fgsm-all-dims-err")
			b.ReportMetric(sensor, "fgsm-sensor-only-err")
		}
	}
}

// BenchmarkAblationDefenses contrasts the paper's semantic-loss defense with
// classical adversarial training and with their combination (FGSM ε=0.1
// white-box attack on the Glucosym MLP monitor).
func BenchmarkAblationDefenses(b *testing.B) {
	a := assets(b)
	train := a.Sims[dataset.Glucosym].Train
	test := a.Sims[dataset.Glucosym].Test
	labels := test.Labels()
	cases := []struct {
		name     string
		semantic bool
		advEps   float64
	}{
		{"none", false, 0},
		{"semantic", true, 0},
		{"advtrain", false, 0.1},
		{"both", true, 0.1},
	}
	for i := 0; i < b.N; i++ {
		for _, tc := range cases {
			m, err := monitor.Train(train, monitor.TrainConfig{
				Arch:           monitor.ArchMLP,
				Semantic:       tc.semantic,
				SemanticWeight: a.Config.SemanticWeight,
				AdversarialEps: tc.advEps,
				Epochs:         a.Config.Epochs,
				Hidden1:        a.Config.MLPHidden1,
				Hidden2:        a.Config.MLPHidden2,
				Seed:           a.Config.Seed + 17,
			})
			if err != nil {
				b.Fatal(err)
			}
			re, err := experiments.RobustnessError(m, test, experiments.FGSMPerturbation(m, labels, 0.1))
			if err != nil {
				b.Fatal(err)
			}
			c, err := experiments.Score(m, test, a.Config.ToleranceDelta, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(re, "fgsm-err-"+tc.name)
				b.ReportMetric(c.F1(), "F1-"+tc.name)
			}
		}
	}
}

// BenchmarkEvasion verifies the §III premise: the studied perturbations
// evade a CUSUM change detector watching the injected residual.
func BenchmarkEvasion(b *testing.B) {
	a := assets(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Evasion(a)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			g := res.Gaussian["glucosym"]
			f := res.FGSM["glucosym"]
			b.ReportMetric(g[len(g)-1], "gaussian-evasion-max-sigma")
			b.ReportMetric(f[len(f)-1], "fgsm-evasion-max-eps")
		}
	}
}

// BenchmarkAblationPGDvsFGSM contrasts single-step FGSM with 10-step PGD at
// the same L∞ budget (the stronger attack the paper's conclusion calls for).
func BenchmarkAblationPGDvsFGSM(b *testing.B) {
	a := assets(b)
	sa := a.Sims[dataset.Glucosym]
	m, err := sa.MLMonitor("mlp")
	if err != nil {
		b.Fatal(err)
	}
	x, err := m.InputMatrix(sa.Test.Samples)
	if err != nil {
		b.Fatal(err)
	}
	labels := sa.Test.Labels()
	orig, err := m.PredictClasses(x)
	if err != nil {
		b.Fatal(err)
	}
	flips := func(adv *mat.Matrix) float64 {
		pred, err := m.PredictClasses(adv)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for i := range pred {
			if pred[i] != orig[i] {
				n++
			}
		}
		return float64(n) / float64(len(pred))
	}
	for i := 0; i < b.N; i++ {
		fgsmAdv, err := attack.FGSM(m.Model(), x, labels, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		pgdAdv, err := attack.PGD(m.Model(), x, labels, attack.PGDConfig{Eps: 0.1, Steps: 10})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(flips(fgsmAdv), "fgsm-err")
			b.ReportMetric(flips(pgdAdv), "pgd-err")
		}
	}
}

// benchRunCampaign measures cold campaign generation (simulate + window +
// label) at a fixed worker count. Output is byte-identical at every setting
// (dataset.TestCampaignParallelByteIdentical), so serial vs parallel8 is a
// pure wall-clock comparison; BenchmarkRunCampaign/serial is the benchmark
// the CI regression gate tracks against BENCH_BASELINE.json.
func benchRunCampaign(b *testing.B, workers int) {
	b.Helper()
	cfg := dataset.CampaignConfig{
		Simulator:          dataset.Glucosym,
		Profiles:           8,
		EpisodesPerProfile: 4,
		Steps:              200,
		Seed:               11,
		Workers:            workers,
	}
	sweep.SetBudget(workers)
	defer sweep.SetBudget(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCampaign compares serial and 8-way parallel generation of a
// 32-episode campaign (the last cold-run stage to parallelize; on an
// N-core machine the episodes fan out across real cores).
func BenchmarkRunCampaign(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchRunCampaign(b, 1) })
	b.Run("parallel8", func(b *testing.B) { benchRunCampaign(b, 8) })
}

// benchTrainMonitor measures monitor training throughput at a fixed worker
// count. Workers drives the minibatch pipeline + block-parallel
// forward/backward; the budget is pinned to the same value so the fan-out
// is real. Trained weights are byte-identical at every setting
// (monitor.TestTrainParallelDeterminism), so serial vs parallel is a pure
// wall-clock comparison.
func benchTrainMonitor(b *testing.B, simu dataset.Simulator, arch monitor.Arch, workers int) {
	b.Helper()
	ds, err := dataset.Generate(dataset.CampaignConfig{
		Simulator:          simu,
		Profiles:           6,
		EpisodesPerProfile: 2,
		Steps:              120,
		Seed:               11,
	})
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := ds.Split(0.75)
	if err != nil {
		b.Fatal(err)
	}
	sweep.SetBudget(workers)
	defer sweep.SetBudget(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monitor.Train(train, monitor.TrainConfig{
			Arch:    arch,
			Epochs:  3,
			Seed:    5,
			Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainMLP compares serial and 8-way pipelined MLP monitor
// training (paper-sized 256-128 hidden layers).
func BenchmarkTrainMLP(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTrainMonitor(b, dataset.Glucosym, monitor.ArchMLP, 1) })
	b.Run("parallel8", func(b *testing.B) { benchTrainMonitor(b, dataset.Glucosym, monitor.ArchMLP, 8) })
}

// BenchmarkTrainLSTM compares serial and 8-way pipelined stacked-LSTM
// monitor training (paper-sized 128-64 over 6 steps).
func BenchmarkTrainLSTM(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTrainMonitor(b, dataset.T1DS, monitor.ArchLSTM, 1) })
	b.Run("parallel8", func(b *testing.B) { benchTrainMonitor(b, dataset.T1DS, monitor.ArchLSTM, 8) })
}

// benchEvaluate measures one full episode-streaming evaluation of a trained
// MLP monitor (per-episode inference + tolerance-window scoring + slicing)
// at a fixed worker count. Reports are byte-identical at every setting
// (eval.TestEvaluateDeterministicAcrossWorkers), so serial vs parallel8 is a
// pure wall-clock comparison; BenchmarkEvaluate is gated in CI against
// BENCH_BASELINE.json.
func benchEvaluate(b *testing.B, workers int) {
	b.Helper()
	a := assets(b)
	sa := a.Sims[dataset.Glucosym]
	m, err := sa.Monitor("mlp")
	if err != nil {
		b.Fatal(err)
	}
	sweep.SetBudget(workers)
	defer sweep.SetBudget(0)
	opts := eval.Options{Tolerance: a.Config.ToleranceDelta, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.Evaluate(m, sa.Test, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rep.Overall.F1, "overall-F1")
		}
	}
}

// BenchmarkEvaluate compares serial and 8-way parallel evaluation — the
// third parallel stage of a run, after generation and training.
func BenchmarkEvaluate(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchEvaluate(b, 1) })
	b.Run("parallel8", func(b *testing.B) { benchEvaluate(b, 8) })
}

// benchInfer measures one full test-set classification pass of a trained
// MLP monitor through either the frozen float32 engine (the -precision f32
// fast path, including the per-call f64→f32 input quantization it pays in
// production) or the canonical f64 model, at a fixed worker budget.
func benchInfer(b *testing.B, workers int, f32 bool) {
	b.Helper()
	a := assets(b)
	sa := a.Sims[dataset.Glucosym]
	m, err := sa.MLMonitor("mlp")
	if err != nil {
		b.Fatal(err)
	}
	x, err := m.InputMatrix(sa.Test.Samples)
	if err != nil {
		b.Fatal(err)
	}
	sweep.SetBudget(workers)
	defer sweep.SetBudget(0)
	predict := m.PredictClasses
	if f32 {
		predict = m.PredictClassesF32
		if _, err := m.Frozen(); err != nil { // one-time freeze outside the timer
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferF32 is the float32 inference engine's headline number:
// frozen-twin classification of the bench test set at worker budgets 1
// and 8, with the canonical f64 path (f64twin) as the in-run comparison
// point. Inference products run on the calling goroutine, so the two
// budgets should time alike. Gated in CI against BENCH_BASELINE.json.
func BenchmarkInferF32(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchInfer(b, 1, true) })
	b.Run("parallel8", func(b *testing.B) { benchInfer(b, 8, true) })
	b.Run("f64twin", func(b *testing.B) { benchInfer(b, 1, false) })
}

// BenchmarkCampaignLoad contrasts the three warm-load paths for the bench
// campaign (the benchRunCampaign config): the v3 JSON decode every warm run
// used to pay, the v4 columnar decode over a streamed buffer, and the full
// artifact-store hit that mmaps the raw entry and borrows its pages as
// feature-column views. All three produce Save-byte-identical datasets
// (dataset.TestColumnarRoundTripMatchesJSON); the gap is pure decode cost.
// CI gates columnar-mmap against BENCH_BASELINE.json.
func BenchmarkCampaignLoad(b *testing.B) {
	cfg := dataset.CampaignConfig{
		Simulator:          dataset.Glucosym,
		Profiles:           8,
		EpisodesPerProfile: 4,
		Steps:              200,
		Seed:               11,
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var jsonBlob, colBlob bytes.Buffer
	if err := ds.Save(&jsonBlob); err != nil {
		b.Fatal(err)
	}
	if err := ds.EncodeColumnar(&colBlob); err != nil {
		b.Fatal(err)
	}
	disk, err := artifact.NewDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, hit, err := dataset.CachedColumnar(disk, cfg.ArtifactKey(),
		func() (*dataset.Dataset, error) { return ds, nil }, true); err != nil || hit {
		b.Fatalf("populate store: hit=%v err=%v", hit, err)
	}

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dataset.Load(bytes.NewReader(jsonBlob.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dataset.DecodeColumnar(bytes.NewReader(colBlob.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar-mmap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			warm, hit, err := dataset.CachedColumnar(disk, cfg.ArtifactKey(),
				func() (*dataset.Dataset, error) { return nil, fmt.Errorf("warm bench generated") }, true)
			if err != nil || !hit {
				b.Fatalf("warm load: hit=%v err=%v", hit, err)
			}
			if i == 0 && mmapio.Supported() && !warm.Mapped() {
				b.Fatal("warm load did not mmap")
			}
		}
	})
}

// syntheticShardReports builds one evaluation surface's per-shard reports:
// count shards, each carrying sliced confusion counts and raw latency
// multisets — the payload shape a fleet hands eval.MergeReports. Contents
// are a fixed function of (shard, slice), so the benchmark input is
// identical on every run.
func syntheticShardReports(count, episodesPerSlice int) []*eval.Report {
	keys := []string{"irregular_meals", "nominal", "overdose", "random_fault", "sensor_drift", "suspend"}
	mkSlice := func(shard, salt int, key string) eval.Slice {
		lats := make([]int, episodesPerSlice)
		for i := range lats {
			lats[i] = (shard*7919 + salt*613 + i*31) % 40
		}
		sort.Ints(lats)
		conf := metrics.Confusion{
			TP: episodesPerSlice + salt, FP: shard + salt,
			TN: 40 * episodesPerSlice, FN: shard,
		}
		return eval.Slice{
			Key:       key,
			Episodes:  episodesPerSlice,
			Samples:   44 * episodesPerSlice,
			Confusion: conf,
			F1:        conf.F1(),
			Latencies: lats,
			Latency:   metrics.SummarizeLatency(lats, shard%2),
		}
	}
	reps := make([]*eval.Report, count)
	for s := range reps {
		rep := &eval.Report{
			FormatVersion: eval.FormatVersion,
			Simulator:     "bench",
			Monitor:       "mlp",
			Tolerance:     12,
			Episodes:      len(keys) * episodesPerSlice,
			Samples:       len(keys) * 44 * episodesPerSlice,
			Overall:       mkSlice(s, 0, "overall"),
		}
		for j, key := range keys {
			rep.Scenarios = append(rep.Scenarios, mkSlice(s, j+1, key))
			rep.Faults = append(rep.Faults, mkSlice(s, j+7, key))
		}
		reps[s] = rep
	}
	return reps
}

// BenchmarkShardMerge measures the fleet-merge fold itself: left-folding
// one surface's per-shard reports into the monolithic report, re-sorting
// latency multisets and recomputing every derived statistic, at two fleet
// widths. Gated in CI against BENCH_BASELINE.json — the fold is pure slice
// arithmetic and must stay negligible next to evaluation.
func BenchmarkShardMerge(b *testing.B) {
	for _, shards := range []int{4, 16} {
		reps := syntheticShardReports(shards, 32)
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.MergeReports(reps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
