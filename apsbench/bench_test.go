package main

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/nn"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{2, 0, false},
	}
	for _, c := range cases {
		got, ok := tailLevel(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, level := tail(xs)
	if level != 99 || v != 990 {
		t.Fatalf("tail of 1..1000 = %v at p%v, want 990 at p99", v, level)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond p99, want 10", beyond)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Fatalf("p50 of 1..4 = %v, want 2", got)
	}
	if v, level := tail([]float64{3, 1}); v != 3 || level != 100 {
		t.Fatalf("tail of two samples = %v at p%v, want the maximum 3 at p100", v, level)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSegmentedIgnoresOneSpoiledSegment(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i%100 + 1) // each segment of 100 holds 1..100
	}
	for i := 200; i < 300; i++ {
		xs[i] *= 10 // the host stalled during the last segment
	}
	if got := segmented(xs, 3, median); got != 50.5 {
		t.Fatalf("segmented median = %v, want the unspoiled segments' 50.5", got)
	}
	if got := median(xs); got <= 50.5 {
		t.Fatalf("plain median %v should show the spoiled segment", got)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	arrivals := []arrival{
		{due: 0, patient: 0},
		{due: 10 * time.Millisecond, patient: 1},
		{due: 20 * time.Millisecond, patient: 2},
	}
	var calls sync.Mutex
	first := true
	send := func(ctx context.Context, patient, lane int) (int, error) {
		calls.Lock()
		stallNow := first
		first = false
		calls.Unlock()
		if stallNow {
			time.Sleep(stall) // the server stalls on the first request
		}
		return patient, nil
	}
	start := time.Now().Add(5 * time.Millisecond)
	ss := openLoop(context.Background(), start, arrivals, 3, 1, send)
	for i, s := range ss[1:] {
		min := stall - arrivals[i+1].due - 5*time.Millisecond
		if s.latency() < min {
			t.Errorf("request %d latency %v, want ≥ %v: the stall must count against requests due during it", i+1, s.latency(), min)
		}
		if s.connWait() < min {
			t.Errorf("request %d waited %v for a connection, want ≥ %v", i+1, s.connWait(), min)
		}
		if s.rtt() > s.latency() {
			t.Errorf("request %d rtt %v exceeds its latency %v", i+1, s.rtt(), s.latency())
		}
	}
}

func TestOpenLoopOneRequestInFlightPerPatient(t *testing.T) {
	arrivals := []arrival{{due: 0, patient: 0}, {due: time.Millisecond, patient: 0}}
	var mu sync.Mutex
	open := 0
	send := func(ctx context.Context, patient, lane int) (int, error) {
		mu.Lock()
		open++
		n := open
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		open--
		mu.Unlock()
		if n > 1 {
			return 0, fmt.Errorf("patient had %d requests in flight", n)
		}
		return 0, nil
	}
	ss := openLoop(context.Background(), time.Now(), arrivals, 1, 2, send)
	for _, s := range ss {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	if !ss[1].sent.After(ss[0].at) && !ss[1].sent.Equal(ss[0].at) {
		t.Fatalf("second request sent at %v before the first completed at %v", ss[1].sent, ss[0].at)
	}
	if ss[1].lag() > 15*time.Millisecond {
		t.Fatalf("lag %v counts the patient's own open request; it should count only generator lateness", ss[1].lag())
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{id: 1, name: "root", start: ms(0), end: ms(100)},
		{id: 2, parent: 1, start: ms(10), end: ms(30)},
		{id: 3, parent: 1, start: ms(20), end: ms(50)},  // overlaps span 2
		{id: 4, parent: 1, start: ms(90), end: ms(120)}, // runs past its parent
		{id: 5, parent: 3, start: ms(25), end: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if got := coverage(spans, 1); got != 50 {
		t.Errorf("coverage of the root = %v%%, want 50%%", got)
	}
	if got := coverageOf(spans, []int{1, 3}); got != 100*(50.0+10)/(100+30) {
		t.Errorf("weighted coverage = %v", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "", 0)
	tr.end(id)
	tr.add("n", 1)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	tr = newTracer()
	root := tr.begin("root", 0, "", 0)
	child := tr.begin("child", root, "s-1/7", 1)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[1].req != "s-1/7" {
		t.Fatalf("spans = %+v", spans)
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)

// emittedNames lists every metric name the workloads compose, built from the
// same program lists the workloads iterate over.
func emittedNames(t *testing.T) []string {
	names := []string{"setup_s", "p50_ms", "peak_rss_mb",
		"eval.f1_mean", "experiments.robust_err_reduction_pct", "experiments.build_s", "experiments.reports_s",
		"sim.generate_s", "sim.episodes", "dataset.split_s", "dataset.windows",
		"artifact.hits", "artifact.misses", "artifact.bytes_written",
		"serve.flushes", "serve.rejected", "serve.batch_occupancy", "serve.deadline_flush_frac",
		"live.max_rate_sps", "backfill.samples_per_s", "backfill.upload_p90_ms",
		"loadgen.sent", "loadgen.ok", "loadgen.failed", "loadgen.lag_p99_ms", "loadgen.conn_wait_p99_ms",
		"loadgen.rtt_p99_ms", "loadgen.session_create_ms",
		"mat.matmul.gflops", "mat.matmul_t.gflops", "mat.tmatmul_add.gflops", "mat32.matmul.gflops",
		"nn.lstm.infer_f32_us_per_row", "runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_cpu_s",
		"trace.coverage_pct", "trace.overhead_pct", "trace.spans", "host.calib_gflops"}
	for _, n := range experiments.MLMonitorNames {
		names = append(names, "monitor.train."+n+"_s")
	}
	for _, a := range []string{"mlp", "lstm"} {
		names = append(names, "monitor.train."+a+".gflops", "monitor.train."+a+".alloc_mb", "nn."+a+".input_grad_ms")
	}
	for _, id := range experiments.ExperimentIDs() {
		names = append(names, "experiments.run."+id+"_s")
	}
	cfg := reproConfig(1)
	rng := rand.New(rand.NewSource(1))
	mlp, err := nn.NewMLPClassifier(rng, dataset.MLPFeatureCount, nn.MLPConfig{Hidden1: cfg.MLPHidden1, Hidden2: cfg.MLPHidden2})
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := nn.NewLSTMClassifier(rng, dataset.SeqFeatureCount, nn.LSTMConfig{Hidden1: cfg.LSTMHidden1, Hidden2: cfg.LSTMHidden2, Steps: cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	for arch, m := range map[string]*nn.Model{"mlp": mlp, "lstm": lstm} {
		for i, l := range m.Layers() {
			for _, dir := range []string{"fwd", "bwd"} {
				names = append(names, fmt.Sprintf("nn.%s.%d-%s.%s_ms", arch, i, l.Name(), dir))
			}
		}
	}
	for _, ph := range liveFixed {
		level, ok := tailLevel(ph.n)
		if !ok {
			t.Fatalf("phase %s has too few arrivals for any tail", ph.name)
		}
		names = append(names, fmt.Sprintf("live.%s.p50_ms", ph.name), fmt.Sprintf("live.%s.p%g_ms", ph.name, level))
	}
	return names
}

func TestEveryEmittedMetricIsDeclared(t *testing.T) {
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("declared metric %q is not a valid name", m.Name)
		}
		if declared[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		declared[m.Name] = true
	}
	for _, n := range emittedNames(t) {
		if !nameRe.MatchString(n) {
			t.Errorf("emitted metric %q is not a valid name", n)
		}
		if !declared[n] {
			t.Errorf("emitted metric %q is not declared in BENCHMARK.json", n)
		}
	}
	env := &runEnv{metrics: map[string]float64{"no.such.metric": 1}, attempted: 1}
	if _, err := buildResult(d, env, true); err == nil {
		t.Error("buildResult accepted an undeclared metric")
	}
}

func TestScheduleIsPeriodicPerPatient(t *testing.T) {
	const patients, rate, n = 8, 100.0, 80
	arr := schedule(rand.New(rand.NewSource(3)), rate, n, patients)
	if len(arr) != n {
		t.Fatalf("%d arrivals, want %d", len(arr), n)
	}
	period := time.Duration(float64(patients) / rate * float64(time.Second))
	last := map[int]time.Duration{}
	for i, a := range arr {
		if i > 0 && a.due < arr[i-1].due {
			t.Fatalf("arrival %d due at %v before arrival %d at %v", i, a.due, i-1, arr[i-1].due)
		}
		if prev, ok := last[a.patient]; ok {
			if d := a.due - prev; d < period-time.Microsecond || d > period+time.Microsecond {
				t.Fatalf("patient %d posts %v apart, want the period %v", a.patient, d, period)
			}
		}
		last[a.patient] = a.due
	}
	if len(last) != patients {
		t.Fatalf("%d patients posted, want %d", len(last), patients)
	}
	if end := arr[n-1].due; end > time.Duration(float64(n)/rate*float64(time.Second)) {
		t.Fatalf("schedule ends at %v, after n/rate", end)
	}
}
