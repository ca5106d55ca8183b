package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/serve"
)

// serveSetups is how many times a serve workload sets up (trains and starts
// the server); setup_s is the median.
const serveSetups = 3

// serveEpochs is how long set-up trains the served monitor. Serving cost
// depends on the monitor's widths, not on how long its weights trained, so
// a shorter training keeps the repeated set-up affordable.
const serveEpochs = 5

// runDeadline bounds a serve run's load so the process always ends in time.
const runDeadline = 150 * time.Second

// rig is a running server under test.
type rig struct {
	m       *monitor.MLMonitor
	sa      *experiments.SimAssets
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	train   time.Duration
}

// startRig trains the served monitor — lstm_custom on T1DS at Default
// widths for serveEpochs, on the repro-cold campaign of this seed — and
// starts the default serve.Config on a loopback port.
func startRig(cfg experiments.Config) (*rig, error) {
	t0 := time.Now()
	a, err := experiments.Build(cfg)
	if err != nil {
		return nil, err
	}
	sa := a.Sims[dataset.T1DS]
	m, err := sa.MLMonitor("lstm_custom")
	if err != nil {
		return nil, err
	}
	r := &rig{m: m, sa: sa, train: time.Since(t0), served: make(chan error, 1)}
	if r.srv, err = serve.New(serve.Config{Monitor: m}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.httpSrv = &http.Server{Handler: r.srv}
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	return r, nil
}

// stop shuts the HTTP server down, drains the program's server and waits
// for the serving goroutine to end.
func (r *rig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.httpSrv.Shutdown(ctx)
	r.srv.Close()
	if serr := <-r.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// setupServe sets up serveSetups times, keeps the last rig running and
// reports setup_s and the served monitor's quality.
func setupServe(opt options, env *runEnv) (*rig, error) {
	cfg := reproConfig(opt.seed)
	cfg.Epochs = serveEpochs
	var times, trains []float64
	var r *rig
	for i := 0; i < serveSetups; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, err
			}
		}
		sp := env.tr.begin("serve.setup", 0, "", 0)
		d, err := timeIt(func() error {
			var err error
			r, err = startRig(cfg)
			return err
		})
		env.tr.end(sp)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		trains = append(trains, r.train.Seconds())
	}
	env.set("setup_s", median(times))

	rep, err := eval.Evaluate(r.m, r.sa.Test, eval.Options{Tolerance: cfg.ToleranceDelta, Workers: env.workers, Precision: eval.PrecisionF32})
	if err != nil {
		r.stop()
		return nil, err
	}
	f1 := rep.Overall.F1
	env.check(f1 >= f1Floor, "served monitor's test F1 %.3f is below the floor %.2f", f1, f1Floor)
	env.set("eval.f1_mean", f1)
	if opt.trace {
		env.set("monitor.train.lstm_custom_s", median(trains))
		if err := probeF32(env, r.m, r.sa.Test, cfg.LSTMHidden1); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

// reference posts each script as one JSON-array request to a fresh session
// and returns the verdicts. It runs in set-up: a verdict sequence that any
// serving design must reproduce, however it batches.
func reference(ctx context.Context, c *client, scripts [][]serve.Sample) ([][]serve.Verdict, error) {
	out := make([][]serve.Verdict, len(scripts))
	for i, s := range scripts {
		id, _, err := c.createSession(ctx)
		if err != nil {
			return nil, err
		}
		if out[i], err = c.appendSamples(ctx, id, s); err != nil {
			return nil, err
		}
		if err := c.deleteSession(ctx, id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batcherDelta reports the dispatcher counters accumulated between two
// /v1/stats readings; nothing is reported while the server exposes none.
func batcherDelta(env *runEnv, before, after serve.BatcherStats, ok bool) {
	if !ok {
		return
	}
	flushes := after.Flushes - before.Flushes
	env.set("serve.flushes", float64(flushes))
	env.set("serve.rejected", float64(after.Rejected-before.Rejected))
	if flushes > 0 {
		env.set("serve.batch_occupancy", float64(after.FusedRows-before.FusedRows)/float64(flushes))
		env.set("serve.deadline_flush_frac", float64(after.DeadlineFlushes-before.DeadlineFlushes)/float64(flushes))
	}
}

// phase is one rate of the serve-live open loop.
type phase struct {
	name string
	rate float64 // arrivals per second
	n    int     // arrivals
}

// Live traffic: three fixed rates, then a ladder that finds the highest
// rate meeting the latency limit. The ladder climbs from the high rate in
// coarse steps, then refines above the highest coarse rate that passed in
// fine steps; each stage ends after two steps in a row miss the limit, so
// one stray stall does not end the climb. Arrival counts are fixed, so each
// rate's tail percentile is fixed too by the ten-samples-beyond rule: p90
// for low and the ladder steps, p99 for mid and high. A step meets the limit
// when its tail does and its backlog does not grow. The rates sit well
// below the capacity of a busy 2-core host, so the fixed rates measure
// service time rather than saturation.
var liveFixed = []phase{
	{"low", 80, 240},
	{"mid", 200, 1260}, // the end-to-end p50_ms
	{"high", 350, 1000},
}

const (
	livePatients            = 64
	coarseStep, coarseSteps = 1.25, 8
	fineStep, fineSteps     = 1.05, 4 // fine steps stay below the next coarse rate
	ladderMisses            = 2
	ladderArrivals          = 600
	latencyLimit            = 20 * time.Millisecond
)

// liveSegments is how many chronological segments the mid phase is split
// into for the end-to-end p50_ms (see segmented).
const liveSegments = 7

// phaseStats summarizes one phase.
type phaseStats struct {
	p50, tail, level float64 // ms, ms, percentile of tail
	segP50           float64 // ms, median of the liveSegments segment medians
	achieved         float64 // completed requests per second
	ok               bool    // tail within the limit and no growing backlog
	samples          []sample
}

func summarize(start time.Time, ss []sample) phaseStats {
	lat := make([]float64, 0, len(ss))
	var last time.Time
	for _, s := range ss {
		lat = append(lat, ms(s.latency()))
		if s.at.After(last) {
			last = s.at
		}
	}
	st := phaseStats{p50: median(lat), segP50: segmented(lat, liveSegments, median), samples: ss}
	st.tail, st.level = tail(lat)
	if span := last.Sub(start).Seconds(); span > 0 {
		st.achieved = float64(len(ss)) / span
	}
	// A growing backlog shows as late arrivals waiting longer than early
	// ones: the last tenth's median must also meet the limit.
	lastTenth := lat[len(lat)-len(lat)/10:]
	limit := ms(latencyLimit)
	st.ok = st.tail <= limit && median(lastTenth) <= limit
	return st
}

// liveSession is one patient's session and its position in its script.
type liveSession struct {
	id       string
	script   []serve.Sample
	next     int
	verdicts []serve.Verdict
}

func runServeLive(opt options, env *runEnv) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r, err := setupServe(opt, env)
	if err != nil {
		return err
	}
	defer r.stop()
	conns := env.workers
	c := newClient(r.base, conns)
	defer c.close()

	// Inputs. Each phase draws its schedule from the seed and its index;
	// every patient posts once per period, so a phase of n arrivals gives
	// each patient at most ceil(n/patients) of them. Scripts are long
	// enough for the longest possible ladder, and their references are
	// taken before timing starts.
	planFor := func(idx int, rate float64, n int) []arrival {
		return schedule(rand.New(rand.NewSource(opt.seed*1_000_003+int64(idx))), rate, n, livePatients)
	}
	perPatient := func(n int) int { return (n + livePatients - 1) / livePatients }
	need := 0
	for _, ph := range liveFixed {
		need += perPatient(ph.n)
	}
	need += (coarseSteps + fineSteps) * perPatient(ladderArrivals)
	window := r.m.Window()
	sessions := make([]*liveSession, livePatients)
	scripts := make([][]serve.Sample, livePatients)
	for p := range sessions {
		scripts[p] = patientScript(opt.seed, p, window-1+need)
		sessions[p] = &liveSession{script: scripts[p]}
	}
	refs, err := reference(ctx, c, scripts)
	if err != nil {
		return err
	}
	var creates []float64
	for _, s := range sessions {
		d, err := timeIt(func() error {
			var err error
			s.id, _, err = c.createSession(ctx)
			return err
		})
		if err != nil {
			return err
		}
		creates = append(creates, ms(d))
		// Warm-up samples produce no verdict; priming them makes every
		// timed request owe exactly one.
		vs, err := c.appendSamples(ctx, s.id, s.script[:window-1])
		if err != nil {
			return err
		}
		env.check(len(vs) == 0, "warm-up of session %s returned %d verdicts", s.id, len(vs))
		s.next = window - 1
	}

	var mu sync.Mutex // guards the session verdict logs against the connection workers
	send := func(ctx context.Context, patient, lane int) (int, error) {
		s := sessions[patient] // this patient has no other request open
		seq := s.next
		s.next++
		vs, err := c.appendSamples(ctx, s.id, s.script[seq:seq+1])
		mu.Lock()
		defer mu.Unlock()
		if err == nil && (len(vs) != 1 || vs[0].Seq != seq) {
			err = fmt.Errorf("sample %d of session %s got %d verdicts", seq, s.id, len(vs))
		}
		if err == nil {
			s.verdicts = append(s.verdicts, vs[0])
		}
		return seq, err
	}

	bsBefore, bsOK, err := c.batcherStats(ctx)
	if err != nil {
		return err
	}
	resetPeakRSS()
	rt0 := sampleRuntime()
	var stats []phaseStats
	var roots []int
	best := -1.0
	runPhase := func(ph phase) (phaseStats, error) {
		start := time.Now().Add(5 * time.Millisecond)
		ss := openLoop(ctx, start, planFor(len(stats), ph.rate, ph.n), livePatients, conns, send)
		st := summarize(start, ss)
		stats = append(stats, st)
		root := env.tr.record("live."+ph.name, 0, "", 0, start, latest(ss))
		roots = append(roots, root)
		for _, s := range ss {
			env.op(s.err == nil)
			if s.err != nil {
				env.notes = append(env.notes, s.err.Error())
			}
			if env.tr != nil {
				req := fmt.Sprintf("%s/%d", sessions[s.patient].id, s.seq)
				rq := env.tr.record("loadgen.request", root, req, s.lane, s.due, s.at)
				env.tr.record("loadgen.wait", rq, req, s.lane, s.due, s.sent)
				env.tr.record("serve.append", rq, req, s.lane, s.sent, s.at)
			}
		}
		if st.ok && st.achieved > best {
			best = st.achieved
		}
		return st, ctx.Err()
	}
	// climb runs up to steps ladder steps at from×step^k and returns the
	// highest rate that met the limit (0 if none did).
	climb := func(stage string, from, step float64, steps int) (float64, error) {
		passed, misses := 0.0, 0
		for k := 1; k <= steps && misses < ladderMisses; k++ {
			rate := from * math.Pow(step, float64(k))
			st, err := runPhase(phase{fmt.Sprintf("%s%d", stage, k), rate, ladderArrivals})
			if err != nil {
				return 0, err
			}
			misses++
			if st.ok {
				passed, misses = rate, 0
			}
		}
		return passed, nil
	}
	for _, ph := range liveFixed {
		if _, err := runPhase(ph); err != nil {
			return err
		}
	}
	base := liveFixed[len(liveFixed)-1].rate
	coarse, err := climb("coarse", base, coarseStep, coarseSteps)
	if err != nil {
		return err
	}
	if coarse == 0 {
		coarse = base
	}
	if _, err := climb("fine", coarse, fineStep, fineSteps); err != nil {
		return err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	bsAfter, _, err := c.batcherStats(ctx)
	if err != nil {
		return err
	}

	for p, s := range sessions {
		n := len(s.verdicts)
		want := refs[p]
		env.check(n <= len(want) && digest(s.verdicts) == digest(want[:n]),
			"session %s verdict digest differs from its single-request reference over %d verdicts", s.id, n)
	}
	mid := stats[1] // liveFixed[1]
	env.check(best > 0, "no rate met the %v latency limit", latencyLimit)
	env.set("p50_ms", mid.segP50)
	env.set("peak_rss_mb", peak)

	if opt.trace {
		env.setRuntimeDelta(rt0)
		batcherDelta(env, bsBefore, bsAfter, bsOK)
		for i, ph := range liveFixed {
			st := stats[i]
			env.set(fmt.Sprintf("live.%s.p50_ms", ph.name), st.p50)
			env.set(fmt.Sprintf("live.%s.p%g_ms", ph.name, st.level), st.tail)
		}
		env.set("live.max_rate_sps", best)
		var all []sample
		for _, st := range stats {
			all = append(all, st.samples...)
		}
		loadgenMetrics(env, all, creates)
		spans := env.tr.snapshot()
		env.set("trace.coverage_pct", coverageOf(spans, roots))
		var wall time.Duration
		for _, id := range roots {
			wall += spans[id-1].end - spans[id-1].start
		}
		env.set("trace.overhead_pct", 100*float64(spanCost())*float64(len(spans))/float64(wall))
	}
	return nil
}

// latest returns the last completion time among ss.
func latest(ss []sample) time.Time {
	var t time.Time
	for _, s := range ss {
		if s.at.After(t) {
			t = s.at
		}
	}
	return t
}

// loadgenMetrics reports the generator's own ledger: how much it sent, how
// late it ran, and where each request's time went.
func loadgenMetrics(env *runEnv, ss []sample, creates []float64) {
	var lag, wait, rtt []float64
	ok := 0
	for _, s := range ss {
		if s.err == nil {
			ok++
		}
		lag = append(lag, ms(s.lag()))
		wait = append(wait, ms(s.connWait()))
		rtt = append(rtt, ms(s.rtt()))
	}
	env.set("loadgen.sent", float64(len(ss)))
	env.set("loadgen.ok", float64(ok))
	env.set("loadgen.failed", float64(len(ss)-ok))
	env.set("loadgen.lag_p99_ms", percentile(sortedCopy(lag), 99))
	env.set("loadgen.conn_wait_p99_ms", percentile(sortedCopy(wait), 99))
	env.set("loadgen.rtt_p99_ms", percentile(sortedCopy(rtt), 99))
	env.set("loadgen.session_create_ms", median(creates))
}

// Backfill traffic: day-long traces (288 five-minute samples) uploaded one
// at a time, each into a fresh session, for at least minUploads uploads
// (enough for a p90 with 15 uploads beyond it).
const (
	backfillSamples  = 288
	backfillScripts  = 32
	backfillSegments = 3
	minUploads       = 150
)

func runServeBackfill(opt options, env *runEnv) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r, err := setupServe(opt, env)
	if err != nil {
		return err
	}
	defer r.stop()
	// One upload holds two connections: the NDJSON upload and the verdict
	// stream it is read back on.
	conns := env.workers
	if conns < 2 {
		conns = 2
	}
	c := newClient(r.base, conns)
	defer c.close()

	scripts := make([][]serve.Sample, backfillScripts)
	for i := range scripts {
		scripts[i] = patientScript(opt.seed, 1000+i, backfillSamples)
	}
	refs, err := reference(ctx, c, scripts)
	if err != nil {
		return err
	}
	expect := backfillSamples - (r.m.Window() - 1)

	bsBefore, bsOK, err := c.batcherStats(ctx)
	if err != nil {
		return err
	}
	resetPeakRSS()
	rt0 := sampleRuntime()
	var uploads, creates []float64
	attempts := 0
	root := env.tr.begin("backfill", 0, "", 0)
	t0 := time.Now()
	for i := 0; i < minUploads || time.Since(t0).Seconds() < opt.seconds; i++ {
		k := i % backfillScripts
		attempts++
		req := fmt.Sprintf("upload-%d", i)
		up := env.tr.begin("loadgen.upload", root, req, 0)
		var id string
		cd, err := timeIt(func() error {
			var err error
			id, _, err = c.createSession(ctx)
			return err
		})
		var vs []serve.Verdict
		var lat time.Duration
		if err == nil {
			creates = append(creates, ms(cd))
			sp := env.tr.begin("serve.ingest_stream", up, req, 0)
			vs, lat, err = c.uploadStream(ctx, id, scripts[k], expect)
			env.tr.end(sp)
		}
		if err == nil {
			sp := env.tr.begin("serve.delete", up, req, 0)
			err = c.deleteSession(ctx, id)
			env.tr.end(sp)
		}
		env.tr.end(up)
		env.op(err == nil)
		if err != nil {
			env.notes = append(env.notes, err.Error())
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		uploads = append(uploads, ms(lat))
		env.check(digest(vs) == digest(refs[k]), "upload %d (session %s) verdict digest differs from its single-request reference", i, id)
	}
	wall := time.Since(t0)
	env.tr.end(root)
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	bsAfter, _, err := c.batcherStats(ctx)
	if err != nil {
		return err
	}
	if len(uploads) == 0 {
		return errors.New("no upload succeeded")
	}
	up90, _ := tail(uploads)
	env.set("p50_ms", segmented(uploads, backfillSegments, median))
	env.set("peak_rss_mb", peak)

	if opt.trace {
		env.setRuntimeDelta(rt0)
		batcherDelta(env, bsBefore, bsAfter, bsOK)
		env.set("backfill.samples_per_s", float64(len(uploads)*expect)/wall.Seconds())
		env.set("backfill.upload_p90_ms", up90)
		env.set("loadgen.sent", float64(attempts))
		env.set("loadgen.ok", float64(len(uploads)))
		env.set("loadgen.failed", float64(attempts-len(uploads)))
		env.set("loadgen.rtt_p99_ms", percentile(sortedCopy(uploads), 99))
		env.set("loadgen.session_create_ms", median(creates))
		spans := env.tr.snapshot()
		env.set("trace.coverage_pct", coverage(spans, root))
		env.set("trace.overhead_pct", 100*float64(spanCost())*float64(len(spans))/float64(wall))
	}
	return nil
}
