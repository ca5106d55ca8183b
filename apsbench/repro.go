package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/experiments"
)

// f1Floor is the lowest Table III F1 an ML monitor may score, averaged over
// the two simulators, before the run counts as incorrect. At this campaign
// size about one seed in twenty leaves one simulator's monitors near F1 0,
// so a per-row floor would fail healthy code; the averaged floor still
// catches a monitor that stopped learning.
const f1Floor = 0.3

// reproConfig is the repro-cold scale: experiments.Default() widths and
// epochs on a smaller campaign (2 episodes per profile, 100 steps).
func reproConfig(seed int64) experiments.Config {
	cfg := experiments.Default()
	cfg.EpisodesPerProfile = 2
	cfg.Steps = 100
	cfg.Seed = seed
	return cfg
}

// reproOutcome is what one cold reproduction produced and cost.
type reproOutcome struct {
	wall     time.Duration
	root     int // the reproduction's root span
	output   string
	f1       map[string][]float64 // Table III F1 per ML monitor, one per simulator
	reduct   float64              // robust_err_reduction_pct
	baseFGSM float64
	custFGSM float64
	assets   *experiments.Assets
	store    *countingStore
	failed   []string // errors of experiments that failed

	train      map[string]time.Duration // per monitor name, both simulators
	trainAlloc map[string]uint64        // per architecture
	trainFLOPs map[string]float64       // per architecture, computed from shapes
	trainTime  map[string]time.Duration // per architecture
	stages     map[string]time.Duration // experiments.* stage times
}

// freshStore creates an empty disk artifact store in dir.
func freshStore(dir string) (*countingStore, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	disk, err := artifact.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(ents) != 0 {
		return nil, fmt.Errorf("store %s is not empty", dir)
	}
	return newCountingStore(disk), nil
}

// reproduce runs the researcher's path once, cold, into store: Build, every
// ML monitor on both simulators, every experiment in run order, and the
// evaluation reports. It calls the experiment registry directly (the body of
// experiments.Run) so the typed Table III and Fig 9 results stay available
// for the quality metrics without running them twice.
func reproduce(cfg experiments.Config, store *countingStore, tr *tracer) (*reproOutcome, error) {
	experiments.SetStore(store)
	defer experiments.SetStore(nil)
	o := &reproOutcome{
		store: store, f1: map[string][]float64{},
		train: map[string]time.Duration{}, trainAlloc: map[string]uint64{},
		trainFLOPs: map[string]float64{}, trainTime: map[string]time.Duration{},
		stages: map[string]time.Duration{},
	}
	var out strings.Builder
	var (
		table3 *experiments.Table3Result
		fig9   *experiments.Fig9BothResult
	)
	t0 := time.Now()
	o.root = tr.begin("repro.cold", 0, "", 0)

	stage := func(name string, fn func() error) error {
		sp := tr.begin(name, o.root, "", 0)
		store.setParent(sp)
		d, err := timeIt(fn)
		tr.end(sp)
		o.stages[name] += d
		return err
	}

	err := stage("experiments.build", func() error {
		var err error
		o.assets, err = experiments.Build(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, simu := range experiments.Simulators {
		sa := o.assets.Sims[simu]
		for _, name := range experiments.MLMonitorNames {
			arch := strings.TrimSuffix(name, "_custom")
			sp := tr.begin("monitor.train."+name, o.root, simu.String(), 0)
			store.setParent(sp)
			var before runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&before)
			}
			d, err := timeIt(func() error { _, err := sa.Monitor(name); return err })
			if tr != nil {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				o.trainAlloc[arch] += after.TotalAlloc - before.TotalAlloc
			}
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			o.train[name] += d
			o.trainTime[arch] += d
			o.trainFLOPs[arch] += trainFLOPs(arch, cfg, sa.Train.Len())
		}
	}
	for _, id := range experiments.ExperimentIDs() {
		err := stage("experiments.run."+id, func() error {
			res, err := experiments.Registry[id](o.assets)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			switch r := res.(type) {
			case *experiments.Table3Result:
				table3 = r
			case *experiments.Fig9BothResult:
				fig9 = r
			}
			out.WriteString(res.Render() + "\n")
			return nil
		})
		if err != nil {
			// An experiment that fails is a failed operation; the others
			// still run, so the run reports what it measured.
			o.failed = append(o.failed, err.Error())
		}
	}
	err = stage("experiments.reports", func() error {
		rr, err := experiments.Reports(o.assets)
		if err != nil {
			return err
		}
		out.WriteString(rr.Render())
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.wall = time.Since(t0)
	tr.end(o.root)
	o.output = out.String()

	if table3 == nil || fig9 == nil {
		return nil, fmt.Errorf("no Table III or Fig 9 result: %v", o.failed)
	}
	for _, simu := range experiments.Simulators {
		for _, name := range experiments.MLMonitorNames {
			row, ok := table3.Row(simu, name)
			if !ok {
				return nil, fmt.Errorf("table3 has no row %v/%s", simu, name)
			}
			o.f1[name] = append(o.f1[name], row.F1)
		}
	}
	custom := func(label string) bool { return strings.Contains(label, "-Custom-") }
	base := func(label string) bool { return !custom(label) }
	var reduct float64
	for _, h := range []*experiments.HeatmapResult{fig9.Gaussian, fig9.FGSM} {
		b, c := h.MeanError(base), h.MeanError(custom)
		if b > 0 {
			reduct += 100 * (b - c) / b / 2
		}
	}
	o.reduct = reduct
	o.baseFGSM, o.custFGSM = fig9.FGSM.MeanError(base), fig9.FGSM.MeanError(custom)
	return o, nil
}

// trainFLOPs computes the arithmetic of training one monitor from the layer
// shapes: forward multiply-adds per sample, times three for forward plus
// backward, times samples and epochs. It is a computed count, not a
// hardware counter.
func trainFLOPs(arch string, cfg experiments.Config, samples int) float64 {
	var fwd float64
	switch arch {
	case "mlp":
		in, h1, h2 := float64(dataset.MLPFeatureCount), float64(cfg.MLPHidden1), float64(cfg.MLPHidden2)
		fwd = 2 * (in*h1 + h1*h2 + h2*2)
	case "lstm":
		f, h1, h2 := float64(dataset.SeqFeatureCount), float64(cfg.LSTMHidden1), float64(cfg.LSTMHidden2)
		step := 2*(f*4*h1+h1*4*h1) + 2*(h1*4*h2+h2*4*h2)
		fwd = float64(cfg.Window)*step + 2*h2*2
	}
	return 3 * fwd * float64(samples) * float64(cfg.Epochs)
}

// repeatReference returns the rendered output an earlier run of the same
// code and seed recorded in this checkout, recording output as the
// reference when there is none. Repeat runs must render the same bytes.
func repeatReference(seed int64, output string) (string, error) {
	dir := filepath.Join(workDir, "repro-outputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.txt", sourceDigest(), seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		return string(prev), nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(output), 0o644); err != nil {
		return "", err
	}
	return output, os.Rename(tmp, path)
}

// checkRepro applies the repro-cold correctness checks to one outcome.
func checkRepro(env *runEnv, o *reproOutcome, reference string) {
	env.check(o.output == reference, "rendered output differs from the reference rendering of this seed")
	for _, name := range experiments.MLMonitorNames {
		f1 := mean(o.f1[name])
		env.check(f1 >= f1Floor, "table3 F1 of %s averaged over the simulators is %.3f, below the floor %.2f (per simulator: %v)", name, f1, f1Floor, o.f1[name])
	}
	env.check(o.custFGSM < o.baseFGSM, "Custom monitors' mean FGSM robustness error %.4f is not below the base monitors' %.4f", o.custFGSM, o.baseFGSM)
	o.store.mu.Lock()
	coldHits := o.store.coldHits
	o.store.mu.Unlock()
	env.check(coldHits == 0, "%d artifact hits on entries this cold run never wrote", coldHits)
}

// reproSetups is how many empty stores set-up creates; setup_s is the
// median creation time.
const reproSetups = 25

// reproOps is the number of program operations one reproduction attempts:
// Build, each ML monitor, each experiment and the reports.
func reproOps() int {
	return 1 + len(experiments.Simulators)*len(experiments.MLMonitorNames) + len(experiments.ExperimentIDs()) + 1
}

func runReproCold(opt options, env *runEnv) error {
	cfg := reproConfig(opt.seed)
	storeDir := func(i int) string { return filepath.Join(workDir, "stores", fmt.Sprintf("repro-%d", i)) }

	// Set-up: fresh empty stores, timed several times.
	var setups []float64
	stores := make([]*countingStore, 0, reproSetups)
	for i := 0; i < reproSetups; i++ {
		var cs *countingStore
		d, err := timeIt(func() error {
			var err error
			cs, err = freshStore(storeDir(i))
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		stores = append(stores, cs)
	}
	env.set("setup_s", median(setups))
	defer os.RemoveAll(filepath.Join(workDir, "stores"))

	resetPeakRSS()
	var rt0 runtimeSample
	// An untraced run reproduces until --seconds have passed (one cold
	// reproduction takes longer than that at this scale). A traced run makes
	// one untraced and one traced reproduction, so the traced output is
	// compared with an untraced one.
	repros := 1
	if opt.trace {
		repros = 2
	}
	var outs []*reproOutcome
	start := time.Now()
	for i := 0; i < repros || (!opt.trace && time.Since(start).Seconds() < opt.seconds); i++ {
		var tr *tracer
		if opt.trace && i == 1 {
			tr = env.tr
		}
		if i >= len(stores) {
			cs, err := freshStore(storeDir(i))
			if err != nil {
				return err
			}
			stores = append(stores, cs)
		}
		stores[i].tr = tr
		rt0 = sampleRuntime()
		o, err := reproduce(cfg, stores[i], tr)
		if err != nil {
			return err
		}
		for k := 0; k < reproOps(); k++ {
			env.op(k >= len(o.failed))
		}
		env.notes = append(env.notes, o.failed...)
		outs = append(outs, o)
		if err := os.RemoveAll(storeDir(i)); err != nil {
			return err
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}

	reference, err := repeatReference(opt.seed, outs[0].output)
	if err != nil {
		return err
	}
	walls := make([]float64, len(outs))
	for i, o := range outs {
		checkRepro(env, o, reference)
		walls[i] = o.wall.Seconds()
	}
	last := outs[len(outs)-1]
	var f1s []float64
	for _, name := range experiments.MLMonitorNames {
		f1s = append(f1s, last.f1[name]...)
	}
	env.set("p50_ms", 1e3*median(walls))
	env.set("peak_rss_mb", peak)
	env.set("eval.f1_mean", mean(f1s))
	if opt.trace {
		env.setRuntimeDelta(rt0)
		reproLayerMetrics(env, cfg, last)
	}
	return nil
}

// reproLayerMetrics reports the traced reproduction's per-layer breakdown
// and runs the layer probes on its trained monitors.
func reproLayerMetrics(env *runEnv, cfg experiments.Config, o *reproOutcome) {
	for name, d := range o.train {
		env.set("monitor.train."+name+"_s", d.Seconds())
	}
	for arch, d := range o.trainTime {
		env.set("monitor.train."+arch+".gflops", o.trainFLOPs[arch]/d.Seconds()/1e9)
		env.set("monitor.train."+arch+".alloc_mb", float64(o.trainAlloc[arch])/(1<<20))
	}
	for name, d := range o.stages {
		env.set(name+"_s", d.Seconds())
	}
	env.set("experiments.robust_err_reduction_pct", o.reduct)
	o.store.mu.Lock()
	env.set("artifact.hits", float64(o.store.hits))
	env.set("artifact.misses", float64(o.store.misses))
	env.set("artifact.bytes_written", float64(o.store.bytes))
	env.set("sim.generate_s", o.store.genTime.Seconds())
	o.store.mu.Unlock()

	episodes, windows := 0, 0
	var split time.Duration
	for _, simu := range experiments.Simulators {
		sa := o.assets.Sims[simu]
		episodes += len(sa.Full.EpisodeIndex)
		windows += sa.Full.Len()
		// The split inside Build is not separately callable from outside,
		// so the same call is repeated here on the same campaign.
		sp := env.tr.begin("dataset.split", 0, simu.String(), 0)
		d, err := timeIt(func() error { _, _, err := sa.Full.Split(cfg.TrainFrac); return err })
		env.tr.end(sp)
		env.check(err == nil, "split %v: %v", simu, err)
		split += d
	}
	env.set("sim.episodes", float64(episodes))
	env.set("dataset.windows", float64(windows))
	env.set("dataset.split_s", split.Seconds())
	spans := env.tr.snapshot()
	env.set("trace.coverage_pct", coverage(spans, o.root))
	env.set("trace.overhead_pct", 100*float64(spanCost())*float64(len(spans))/float64(o.wall))

	t1ds := o.assets.Sims[dataset.T1DS]
	for _, arch := range []string{"mlp", "lstm"} {
		m, err := t1ds.MLMonitor(arch)
		env.check(err == nil, "resolve %s for layer probes: %v", arch, err)
		if err == nil {
			env.check(probeLayers(env, arch, m, t1ds.Test) == nil, "layer probes on %s failed", arch)
		}
	}
	probeMat(env, cfg.LSTMHidden1)
}
