// Command apsattack trains a monitor and attacks it with Gaussian noise,
// white-box FGSM, or a black-box substitute transfer attack, reporting F1
// degradation and robustness error.
//
// Usage:
//
//	apsattack [-sim glucosym|t1ds] [-arch mlp|lstm] [-semantic]
//	          [-attack gaussian|fgsm|pgd|blackbox] [-level σ|ε]
//	          [-report] [-report-out report.json]
//	          [-parallel N] [-precision f64|f32] [-cache DIR] [-no-cache]
//
// -report renders the sliced evaluation reports (per-scenario and
// per-fault-type F1 + detection latency) of the clean monitor and of the
// attacked predictions side by side, so degradation can be localized to the
// campaign slice it hits; -report-out additionally writes the report set as
// JSON.
//
// The campaign and the target monitor are cached content-addressed under
// -cache (default $APSREPRO_CACHE or ~/.cache/apsrepro), so repeated attack
// runs against the same training setup skip simulation and training and go
// straight to the attack. Cache events are logged to stderr.
//
// -parallel N sets the worker budget shared by monitor training (the
// minibatch block pipeline) and sweeps; trained weights
// and attack outputs are byte-identical at every setting. -precision f32
// routes monitor inference (clean scoring and the attacked-prediction
// passes) through the frozen float32 engine; gradient-based attack crafting
// stays on the f64 training model. The pgd attack threads the semantic
// knowledge indicators through every gradient step when the target was
// trained with -semantic, so Custom monitors are attacked on the Eq (2)
// loss surface they were trained on.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/attack"
	"repro/internal/cliconfig"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "apsattack:", err)
		os.Exit(1)
	}
}

// appFlags is apsattack's full flag surface, registered by addFlags so the
// help golden test can render it.
type appFlags struct {
	common *cliconfig.Common
	simu   *string
	arch   *string
	epochs *int

	semantic  *bool
	kind      *string
	level     *float64
	report    *bool
	reportOut *string
}

func addFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{
		common: cliconfig.AddCommon(fs, cliconfig.CommonDefaults{
			Seed:      1,
			Parallel:  runtime.GOMAXPROCS(0),
			Precision: eval.PrecisionF64,
		}),
		simu:   cliconfig.AddSim(fs),
		arch:   cliconfig.AddArch(fs),
		epochs: cliconfig.AddEpochs(fs, 15),
	}
	f.semantic = fs.Bool("semantic", false, "train the monitor with the semantic loss")
	f.kind = fs.String("attack", "fgsm", "attack: gaussian, fgsm, pgd, or blackbox")
	f.level = fs.Float64("level", 0.1, "σ (gaussian) or ε (fgsm/pgd/blackbox)")
	f.report = fs.Bool("report", false, "render clean and attacked sliced evaluation reports")
	f.reportOut = fs.String("report-out", "", "write the JSON report set here (implies -report)")
	return f
}

func run() error {
	f := addFlags(flag.CommandLine)
	flag.Parse()
	parallel, err := f.common.ApplyBudget()
	if err != nil {
		return err
	}
	// The experiments-level worker knob also drives the scoring adapters
	// (Score/ScoreEpisodes fan episodes out through it), so -parallel 1
	// really is serial end to end.
	if err := experiments.Configure(parallel, f.common.Precision); err != nil {
		return err
	}
	if *f.reportOut != "" {
		*f.report = true
	}
	store := f.common.OpenStore(log.Printf)

	simu, err := cliconfig.ParseSimulator(*f.simu)
	if err != nil {
		return err
	}
	a, err := cliconfig.ParseArch(*f.arch)
	if err != nil {
		return err
	}

	// The attack campaign shape is fixed (apstrain's default): attacks
	// compare monitors, not campaign sizes.
	camp, err := f.common.CampaignConfig(simu, &cliconfig.Shape{Profiles: 10, Episodes: 4, Steps: 150}, parallel)
	if err != nil {
		return err
	}
	seed := f.common.Seed
	const trainFrac = 0.75
	ds, _, err := experiments.CachedCampaign(store, camp)
	if err != nil {
		return err
	}
	train, test, err := ds.Split(trainFrac)
	if err != nil {
		return err
	}
	m, _, err := experiments.CachedMonitor(store, train, camp, trainFrac, monitor.TrainConfig{
		Arch: a, Semantic: *f.semantic, Epochs: *f.epochs, Seed: seed, Workers: parallel,
	})
	if err != nil {
		return err
	}

	const delta = 12
	opts := eval.Options{Tolerance: delta, Workers: parallel, Precision: experiments.Precision()}

	// Report mode evaluates the clean pass exactly once: the sliced report's
	// overall confusion also supplies the summary line.
	var cleanRep *eval.Report
	var clean metrics.Confusion
	if *f.report {
		cleanRep, err = eval.Evaluate(m, test, opts)
		if err != nil {
			return err
		}
		clean = cleanRep.Overall.Confusion
	} else {
		clean, err = experiments.Score(m, test, delta, nil)
		if err != nil {
			return err
		}
	}
	fmt.Printf("monitor %s on %s: clean F1=%.3f ACC=%.3f\n", m.Name(), simu, clean.F1(), clean.Accuracy())

	// Every arm produces the attacked per-sample prediction vector once; the
	// F1 line, the robustness error (Eq 5, against the clean predictions of
	// the same input matrix) and the sliced attacked report all derive from
	// it.
	x, err := m.InputMatrix(test.Samples)
	if err != nil {
		return err
	}
	cleanPred, err := experiments.PredictMatrixClasses(m, x)
	if err != nil {
		return err
	}
	var (
		advPred []int
		summary string
	)
	level := *f.level
	switch *f.kind {
	case "gaussian":
		noisy, err := dataset.GaussianNoisySamples(rand.New(rand.NewSource(seed+5)), test, level)
		if err != nil {
			return err
		}
		advPred, err = experiments.PredictSamples(m, noisy)
		if err != nil {
			return err
		}
		summary = fmt.Sprintf("gaussian σ=%.2f·std", level)
	case "fgsm":
		adv, err := experiments.FGSMPerturbation(m, test.Labels(), level)(x)
		if err != nil {
			return err
		}
		advPred, err = experiments.PredictMatrixClasses(m, adv)
		if err != nil {
			return err
		}
		summary = fmt.Sprintf("white-box FGSM ε=%.2f", level)
	case "pgd":
		adv, err := experiments.PGDPerturbation(m, test.Labels(), test.Knowledge(), attack.PGDConfig{Eps: level})(x)
		if err != nil {
			return err
		}
		advPred, err = experiments.PredictMatrixClasses(m, adv)
		if err != nil {
			return err
		}
		summary = fmt.Sprintf("white-box PGD ε=%.2f (10 steps)", level)
	case "blackbox":
		qx, err := m.InputMatrix(train.Samples)
		if err != nil {
			return err
		}
		qPred, err := experiments.PredictMatrixClasses(m, qx)
		if err != nil {
			return err
		}
		sub, err := attack.TrainSubstitute(qx, qPred, attack.SubstituteConfig{Epochs: 30, Seed: seed + 9})
		if err != nil {
			return err
		}
		adv, err := attack.BlackBoxFGSM(sub, x, cleanPred, level)
		if err != nil {
			return err
		}
		advPred, err = experiments.PredictMatrixClasses(m, adv)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown attack %q", *f.kind)
	}
	re, err := metrics.RobustnessError(cleanPred, advPred)
	if err != nil {
		return err
	}
	if *f.kind == "blackbox" {
		fmt.Printf("black-box FGSM ε=%.2f (substitute transfer): robustness error=%.3f\n", level, re)
	} else {
		c, err := experiments.ScoreEpisodes(advPred, test, delta)
		if err != nil {
			return err
		}
		fmt.Printf("%s: F1=%.3f (Δ=%.3f), robustness error=%.3f\n", summary, c.F1(), clean.F1()-c.F1(), re)
	}

	if *f.report {
		advRep, err := eval.EvaluatePredictions(fmt.Sprintf("%s+%s@%.2f", m.Name(), *f.kind, level), advPred, test, opts)
		if err != nil {
			return err
		}
		set := &eval.Set{Tolerance: delta, Reports: []*eval.Report{cleanRep, advRep}}
		fmt.Print(experiments.RenderReportSet(set))
		if *f.reportOut != "" {
			file, err := os.Create(*f.reportOut)
			if err != nil {
				return err
			}
			defer file.Close()
			if err := set.Save(file); err != nil {
				return err
			}
			fmt.Printf("report set written to %s\n", *f.reportOut)
		}
	}
	return nil
}
