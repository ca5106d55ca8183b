// Command apstrain generates a simulation campaign, trains one ML monitor
// and reports its clean-input performance; optionally saves the model as
// JSON.
//
// Usage:
//
//	apstrain [-sim glucosym|t1ds] [-arch mlp|lstm] [-semantic] [-epochs N]
//	         [-profiles N] [-episodes N] [-steps N] [-out model.json]
//	         [-report] [-report-out report.json]
//	         [-parallel N] [-precision f64|f32] [-cache DIR] [-no-cache]
//
// -report renders the monitor's per-scenario and per-fault-type evaluation
// report (F1 + detection latency per slice) on the test split; -report-out
// additionally writes it as JSON. The report is cached content-addressed
// like campaigns and monitors, so a warm -report run serves it from the
// store.
//
// Campaigns and trained monitors are cached content-addressed under -cache
// (default $APSREPRO_CACHE or ~/.cache/apsrepro): rerunning with identical
// settings loads both instead of regenerating and retraining. Cache events
// are logged to stderr.
//
// -parallel N sets the worker budget of the training pipeline (minibatch
// gather/compute overlap + per-block forward/backward fan-out). The
// trained model is byte-identical at every setting, so -parallel never
// changes the cache key or the saved weights.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro/internal/cliconfig"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "apstrain:", err)
		os.Exit(1)
	}
}

// printSummary prints the one-line clean-input score, whichever path
// (direct scoring or the cached report) produced the confusion matrix.
func printSummary(name string, c metrics.Confusion, delta int) {
	fmt.Printf("%s: ACC=%.3f F1=%.3f P=%.3f R=%.3f (tolerance-window δ=%d)\n",
		name, c.Accuracy(), c.F1(), c.Precision(), c.Recall(), delta)
}

// appFlags is apstrain's full flag surface, registered by addFlags so the
// help golden test can render it.
type appFlags struct {
	common *cliconfig.Common
	simu   *string
	arch   *string
	shape  *cliconfig.Shape
	epochs *int

	semantic  *bool
	weight    *float64
	out       *string
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
		shape:  cliconfig.AddShape(fs, 10, 4, 150),
		epochs: cliconfig.AddEpochs(fs, 15),
	}
	f.semantic = fs.Bool("semantic", false, "train with the semantic (knowledge) loss")
	f.weight = fs.Float64("weight", 0.5, "semantic loss weight w")
	f.out = fs.String("out", "", "write the trained model JSON here")
	f.report = fs.Bool("report", false, "render the per-scenario/per-fault evaluation report on the test split")
	f.reportOut = fs.String("report-out", "", "write the JSON evaluation report here (implies -report)")
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
	store := f.common.OpenStore(log.Printf)

	simu, err := cliconfig.ParseSimulator(*f.simu)
	if err != nil {
		return err
	}
	a, err := cliconfig.ParseArch(*f.arch)
	if err != nil {
		return err
	}

	camp, err := f.common.CampaignConfig(simu, f.shape, parallel)
	if err != nil {
		return err
	}
	const trainFrac = 0.75
	ds, hit, err := experiments.CachedCampaign(store, camp)
	if err != nil {
		return err
	}
	source := "generated"
	if hit {
		source = "loaded from artifact cache"
	}
	fmt.Printf("campaign %s (%s, %d profiles × %d episodes × %d steps)\n",
		source, simu, f.shape.Profiles, f.shape.Episodes, f.shape.Steps)
	train, test, err := ds.Split(trainFrac)
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d samples (%.1f%% unsafe), train %d / test %d\n",
		ds.Len(), 100*ds.UnsafeFraction(), train.Len(), test.Len())

	tc := monitor.TrainConfig{
		Arch:           a,
		Semantic:       *f.semantic,
		SemanticWeight: *f.weight,
		Epochs:         *f.epochs,
		Seed:           f.common.Seed,
		Workers:        parallel,
	}
	m, hit, err := experiments.CachedMonitor(store, train, camp, trainFrac, tc)
	if err != nil {
		return err
	}
	if hit {
		fmt.Println("monitor loaded from artifact cache (training skipped)")
	}
	const delta = 12
	if *f.report || *f.reportOut != "" {
		// Report mode evaluates exactly once: the cached report's overall
		// slice also supplies the summary line, so a warm run does no
		// inference at all for scoring.
		rc := eval.ReportConfig{
			Campaign:  camp,
			TrainFrac: trainFrac,
			Monitor:   m.Name(),
			Train:     tc,
			Tolerance: delta,
			Precision: experiments.Precision(),
		}
		rep, hit, err := eval.CachedReport(store, rc, func() (*eval.Report, error) {
			return eval.Evaluate(m, test, eval.Options{Tolerance: delta, Workers: parallel, Precision: experiments.Precision()})
		})
		if err != nil {
			return err
		}
		if hit {
			fmt.Println("evaluation report loaded from artifact cache")
		}
		printSummary(m.Name(), rep.Overall.Confusion, delta)
		set := &eval.Set{Tolerance: delta, Reports: []*eval.Report{rep}}
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
			fmt.Printf("evaluation report written to %s\n", *f.reportOut)
		}
	} else {
		c, err := experiments.Score(m, test, delta, nil)
		if err != nil {
			return err
		}
		printSummary(m.Name(), c, delta)
	}

	if *f.out != "" {
		file, err := os.Create(*f.out)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := m.Save(file); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", *f.out)
	}
	return nil
}
