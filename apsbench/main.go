// Command apsbench is the repository's end-to-end benchmark. It runs one
// workload against the program's public Go APIs and its HTTP API, checks
// that the outputs are correct, and prints one JSON result line. Run it
// from the repository root, through run.sh, which builds it first:
//
//	bash apsbench/run.sh --workload repro-cold --seed 1 --seconds 6 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run and writes the spans to
// .bench_build/trace-<workload>-<seed>.json (Chrome trace-event JSON). The
// workloads and metrics are described in README.md; their names and units
// are declared in BENCHMARK.json at the repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/sweep"
)

// workDir holds everything a run writes: artifact stores and traces. It is
// relative to the directory the benchmark runs from (the repository root).
const workDir = ".bench_build"

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workload is one traffic mix. run measures it and fills the sink.
type workload struct {
	name string
	run  func(opt options, env *runEnv) error
}

var workloads = []workload{
	{"repro-cold", runReproCold},
	{"serve-live", runServeLive},
	{"serve-backfill", runServeBackfill},
}

// runEnv is the state shared by one run: the metric sink, the operation
// ledger and the tracer (nil in untraced runs).
type runEnv struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	tr        *tracer
	workers   int
	notes     []string // failed-check descriptions, printed to stderr
}

func (e *runEnv) set(name string, v float64) { e.metrics[name] = v }

// op records one attempted operation and whether it succeeded.
func (e *runEnv) op(ok bool) {
	e.attempted++
	if !ok {
		e.failed++
	}
}

// check records a correctness check as an operation; a failed check is a
// failed operation and its description is kept for stderr.
func (e *runEnv) check(ok bool, format string, args ...any) {
	e.op(ok)
	if !ok {
		e.notes = append(e.notes, fmt.Sprintf(format, args...))
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apsbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fset := flag.NewFlagSet("apsbench", flag.ContinueOnError)
	var opt options
	var traceFlag int
	fset.StringVar(&opt.workload, "workload", "", "workload name: repro-cold, serve-live or serve-backfill")
	fset.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fset.Float64Var(&opt.seconds, "seconds", 10, "how long the timed part runs (a floor; each workload completes its unit of work)")
	fset.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fset.Parse(args); err != nil {
		return opt, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	opt.trace = traceFlag == 1
	if opt.seconds <= 0 {
		return opt, fmt.Errorf("--seconds must be positive")
	}
	return opt, nil
}

func run(args []string, stdout io.Writer) error {
	opt, err := parseFlags(args)
	if err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}

	// Worker count is pinned to the host's CPU count for every layer.
	workers := runtime.NumCPU()
	mat.SetParallelism(workers)
	sweep.SetBudget(workers)
	if err := experiments.Configure(workers, ""); err != nil {
		return err
	}

	env := &runEnv{metrics: map[string]float64{}, workers: workers}
	if opt.trace {
		env.tr = newTracer()
	}
	host := hostRecord(opt, workers)
	steal0, total0 := cpuSteal()
	if err := wl.run(opt, env); err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		host["steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	calib := calibGFLOPS()
	host["calib_gflops"] = calib
	if opt.trace {
		env.set("host.calib_gflops", calib)
		spans := env.tr.snapshot()
		env.set("trace.spans", float64(len(spans)))
		if err := writeTrace(opt, env, spans, host); err != nil {
			return err
		}
	}
	for _, n := range env.notes {
		fmt.Fprintln(os.Stderr, "apsbench: failed:", n)
	}
	res, err := buildResult(decl, env, opt.trace)
	if err != nil {
		return err
	}
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeTrace(opt options, env *runEnv, spans []span, host map[string]any) error {
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	env.tr.mu.Lock()
	counts := make(map[string]int64, len(env.tr.counts))
	for k, v := range env.tr.counts {
		counts[k] = v
	}
	env.tr.mu.Unlock()
	if err := writeChrome(f, spans, counts, host); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "apsbench: trace written to %s\n", path)
	return nil
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared is the metric list read from BENCHMARK.json.
type declared struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult maps the sink onto the declared metric set. Every end-to-end
// metric must have been measured. A per-layer metric the workload never
// reaches reads 0 (the layer is not on this workload's path). A sink entry
// that BENCHMARK.json does not declare is a bug in the benchmark.
func buildResult(d *declared, env *runEnv, traced bool) (*result, error) {
	want := d.EndToEnd
	if traced {
		want = d.PerLayer
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
		known[m.Name] = true
	}
	var undeclared []string
	for name := range env.metrics {
		if !known[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %s", strings.Join(undeclared, ", "))
	}
	res := &result{Attempted: env.attempted, Failed: env.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := env.metrics[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// hostRecord describes where and on what the run happened, so that host
// drift can be told apart from a code change.
func hostRecord(opt options, workers int) map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"go_version": runtime.Version(),
		"commit":     commitID(),
		"workload":   opt.workload,
		"seed":       opt.seed,
		"trace":      opt.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the VCS revision stamped into the
// binary when it was built inside a git checkout, otherwise the source
// digest.
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return sourceDigest()
}

// sourceDigest fingerprints the Go sources and module files below the
// working directory, the repository root.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == workDir || path == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSteal reads the host-wide CPU time the hypervisor gave to other
// guests (steal) and the total, in clock ticks; both read 0 where
// /proc/stat is unavailable. A high steal share marks a run measured on a
// contended host.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC counters.
type runtimeSample struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gc float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return runtimeSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, gcCPU: gc}
}

// setRuntimeDelta reports the runtime counters accumulated since from.
func (e *runEnv) setRuntimeDelta(from runtimeSample) {
	to := sampleRuntime()
	e.set("runtime.alloc_mb", float64(to.totalAlloc-from.totalAlloc)/(1<<20))
	e.set("runtime.gc_cycles", float64(to.numGC-from.numGC))
	e.set("runtime.gc_cpu_s", to.gcCPU-from.gcCPU)
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark, so the next peakRSSMB reading covers only what follows.
// Kernels without the reset leave the mark at the process peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see doc comment
}

// peakRSSMB reads the peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// timeIt runs fn and returns how long it took.
func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}
