package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig drives a deterministic fleet of synthetic patient sessions
// against a running server — the benchmark harness and the CI smoke both
// use it.
type LoadConfig struct {
	BaseURL string
	// Client is the HTTP client to use (default: a client with an idle pool
	// sized for Sessions concurrent streams).
	Client *http.Client
	// Sessions is the concurrent patient count (default 8).
	Sessions int
	// SamplesPerSession is the script length per patient (default 64).
	SamplesPerSession int
	// Mode is "stream" (NDJSON ingest + streaming verdict read, default) or
	// "request" (one POST per sample, as a live pump would send them).
	Mode string
	// Seed parameterizes the synthetic CGM scripts; a given (Seed, session
	// index) pair always produces the same sample sequence.
	Seed int64
	// Session is the per-session wrapper config sent at creation (zero
	// value = server defaults).
	Session SessionConfig
	// Inflight caps unacknowledged samples per streaming session (default
	// 32) so client-side pipelining cannot hide unbounded server queueing.
	Inflight int
}

func (c *LoadConfig) setDefaults() {
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.SamplesPerSession <= 0 {
		c.SamplesPerSession = 64
	}
	if c.Mode == "" {
		c.Mode = "stream"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Inflight <= 0 {
		c.Inflight = 32
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        0,
			MaxIdleConnsPerHost: 2*c.Sessions + 4,
		}}
	}
}

// LoadResult summarizes one load run.
type LoadResult struct {
	Sessions int
	Samples  int
	Verdicts int
	Alarms   int // verdicts with Unsafe set
	Elapsed  time.Duration
	P50, P99 time.Duration // per-sample verdict latency
	// SamplesPerSec is the sustained scored-sample throughput.
	SamplesPerSec float64
	// Digest fingerprints every verdict of every session in session order —
	// bit-identical across runs, concurrency levels and transport modes (for
	// a fixed precision).
	Digest string
}

// Script returns the deterministic synthetic patient trace for one session:
// a bounded CGM random walk with a slow sinusoidal drift, plus a wandering
// basal rate and an IOB pool that follows it.
func Script(seed int64, session, n int) []Sample {
	r := rand.New(rand.NewSource(seed + int64(session)*7919))
	cgm := 100 + r.Float64()*80
	iob := 0.5 + r.Float64()
	rate := 0.5 + r.Float64()
	out := make([]Sample, n)
	for i := range out {
		cgm += r.NormFloat64()*6 + 5*math.Sin(float64(i)/9+float64(session))
		cgm = clamp(cgm, 40, 400)
		rate = clamp(rate+r.NormFloat64()*0.25, 0, 4)
		iob = clamp(iob+rate/12-0.1+r.NormFloat64()*0.05, 0, 8)
		out[i] = Sample{CGM: cgm, IOB: iob, Rate: rate}
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RunLoad executes the configured load against BaseURL and aggregates
// latency, throughput and the verdict digest.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	cfg.setDefaults()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	perSession := make([][]Verdict, cfg.Sessions)
	perLat := make([][]time.Duration, cfg.Sessions)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}
	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			script := Script(cfg.Seed, idx, cfg.SamplesPerSession)
			var (
				verdicts []Verdict
				lats     []time.Duration
				err      error
			)
			if cfg.Mode == "request" {
				verdicts, lats, err = runRequestSession(ctx, cfg, script)
			} else {
				verdicts, lats, err = runStreamSession(ctx, cfg, script)
			}
			if err != nil {
				fail(fmt.Errorf("session %d: %w", idx, err))
				return
			}
			perSession[idx] = verdicts
			perLat[idx] = lats
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	elapsed := time.Since(start)

	res := &LoadResult{
		Sessions: cfg.Sessions,
		Samples:  cfg.Sessions * cfg.SamplesPerSession,
		Elapsed:  elapsed,
	}
	h := sha256.New()
	var all []time.Duration
	for i, verdicts := range perSession {
		for _, v := range verdicts {
			res.Verdicts++
			if v.Unsafe {
				res.Alarms++
			}
			fmt.Fprintf(h, "%d|%d|%t|%t|%t|%s\n", i, v.Seq, v.Raw, v.Unsafe, v.Drift,
				strconv.FormatFloat(v.Conf, 'g', -1, 64))
		}
		all = append(all, perLat[i]...)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		res.P50 = all[len(all)*50/100]
		p99 := len(all) * 99 / 100
		if p99 >= len(all) {
			p99 = len(all) - 1
		}
		res.P99 = all[p99]
	}
	if elapsed > 0 {
		res.SamplesPerSec = float64(res.Samples) / elapsed.Seconds()
	}
	return res, nil
}

type createResp struct {
	ID     string `json:"id"`
	Window int    `json:"window"`
	Warmup int    `json:"warmup"`
}

func createSession(ctx context.Context, cfg LoadConfig) (*createResp, error) {
	body, err := json.Marshal(cfg.Session)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("create: %s", readError(resp))
	}
	var cr createResp
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return nil, err
	}
	return &cr, nil
}

func deleteSession(ctx context.Context, cfg LoadConfig, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, cfg.BaseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := cfg.Client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// runStreamSession pumps the script through a persistent NDJSON ingest POST
// while a parallel chunked GET returns verdicts; per-sample latency is
// measured from line write to verdict receipt.
func runStreamSession(ctx context.Context, cfg LoadConfig, script []Sample) ([]Verdict, []time.Duration, error) {
	cr, err := createSession(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer deleteSession(context.WithoutCancel(ctx), cfg, cr.ID)
	expected := len(script) - cr.Warmup
	if expected <= 0 {
		return nil, nil, fmt.Errorf("script of %d samples never exits the %d-sample warmup", len(script), cr.Warmup)
	}

	sendTimes := make([]int64, len(script))
	var received atomic.Int64
	recvTick := make(chan struct{}, 1)

	// Verdict reader.
	readErrCh := make(chan error, 1)
	verdicts := make([]Verdict, 0, expected)
	lats := make([]time.Duration, 0, expected)
	streamURL := fmt.Sprintf("%s/v1/sessions/%s/stream?max=%d", cfg.BaseURL, cr.ID, expected)
	greq, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		return nil, nil, err
	}
	gresp, err := cfg.Client.Do(greq)
	if err != nil {
		return nil, nil, err
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("stream: %s", readError(gresp))
	}
	go func() {
		sc := bufio.NewScanner(gresp.Body)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		for sc.Scan() {
			var v Verdict
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				readErrCh <- err
				return
			}
			if v.Seq >= 0 && v.Seq < len(script) {
				t0 := atomic.LoadInt64(&sendTimes[v.Seq])
				if t0 != 0 {
					lats = append(lats, time.Duration(time.Now().UnixNano()-t0))
				}
			}
			verdicts = append(verdicts, v)
			received.Add(1)
			select {
			case recvTick <- struct{}{}:
			default:
			}
			if len(verdicts) >= expected {
				break
			}
		}
		readErrCh <- sc.Err()
	}()

	// Sample writer over a pipe-backed POST.
	pr, pw := io.Pipe()
	ingestURL := fmt.Sprintf("%s/v1/sessions/%s/samples", cfg.BaseURL, cr.ID)
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, ingestURL, pr)
	if err != nil {
		return nil, nil, err
	}
	preq.Header.Set("Content-Type", "application/x-ndjson")
	postErrCh := make(chan error, 1)
	go func() {
		resp, err := cfg.Client.Do(preq)
		if err != nil {
			postErrCh <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			postErrCh <- fmt.Errorf("ingest: %s", readError(resp))
			return
		}
		io.Copy(io.Discard, resp.Body)
		postErrCh <- nil
	}()
	bw := bufio.NewWriter(pw)
	var writeErr error
	for i, smp := range script {
		// Respect the in-flight cap: sample i implies ~i-warmup verdicts.
		for int64(i-cr.Warmup)-received.Load() >= int64(cfg.Inflight) {
			select {
			case <-recvTick:
			case <-ctx.Done():
				writeErr = ctx.Err()
			}
			if writeErr != nil {
				break
			}
		}
		if writeErr != nil {
			break
		}
		line, err := json.Marshal(smp)
		if err != nil {
			writeErr = err
			break
		}
		atomic.StoreInt64(&sendTimes[i], time.Now().UnixNano())
		if _, err := bw.Write(append(line, '\n')); err != nil {
			writeErr = err
			break
		}
		if err := bw.Flush(); err != nil {
			writeErr = err
			break
		}
	}
	if writeErr != nil {
		pw.CloseWithError(writeErr)
	} else {
		pw.Close()
	}
	if err := <-postErrCh; err != nil && writeErr == nil {
		writeErr = err
	}
	if err := <-readErrCh; err != nil && writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		return nil, nil, writeErr
	}
	if len(verdicts) != expected {
		return nil, nil, fmt.Errorf("stream delivered %d verdicts, want %d", len(verdicts), expected)
	}
	return verdicts, lats, nil
}

// runRequestSession sends one POST round-trip per sample and takes the
// verdicts from each response inline.
func runRequestSession(ctx context.Context, cfg LoadConfig, script []Sample) ([]Verdict, []time.Duration, error) {
	cr, err := createSession(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer deleteSession(context.WithoutCancel(ctx), cfg, cr.ID)
	url := fmt.Sprintf("%s/v1/sessions/%s/samples", cfg.BaseURL, cr.ID)
	verdicts := make([]Verdict, 0, len(script))
	lats := make([]time.Duration, 0, len(script))
	one := make([]Sample, 1)
	for i := range script {
		one[0] = script[i]
		body, err := json.Marshal(one)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		var ar struct {
			Verdicts []Verdict `json:"verdicts"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&ar)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("append %d: status %d", i, resp.StatusCode)
		}
		if decErr != nil {
			return nil, nil, decErr
		}
		lats = append(lats, time.Since(t0))
		verdicts = append(verdicts, ar.Verdicts...)
	}
	return verdicts, lats, nil
}

func readError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Sprintf("status %d: %s", resp.StatusCode, e.Error)
	}
	return fmt.Sprintf("status %d", resp.StatusCode)
}
