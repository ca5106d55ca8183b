package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/serve"
)

var testMon struct {
	once sync.Once
	m    *monitor.MLMonitor
	err  error
}

// testMonitor trains one small MLP monitor per test process.
func testMonitor(t *testing.T) *monitor.MLMonitor {
	t.Helper()
	testMon.once.Do(func() {
		ds, err := dataset.Generate(dataset.CampaignConfig{
			Simulator:          dataset.Glucosym,
			Profiles:           4,
			EpisodesPerProfile: 2,
			Steps:              80,
			Seed:               11,
		})
		if err != nil {
			testMon.err = err
			return
		}
		train, _, err := ds.Split(0.75)
		if err != nil {
			testMon.err = err
			return
		}
		testMon.m, testMon.err = monitor.Train(train, monitor.TrainConfig{
			Arch:    monitor.ArchMLP,
			Epochs:  6,
			Hidden1: 16,
			Hidden2: 8,
			Seed:    7,
		})
	})
	if testMon.err != nil {
		t.Fatal(testMon.err)
	}
	return testMon.m
}

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg.Monitor = testMonitor(t)
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, out
}

func TestServerSessionLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	window := srv.Window()

	// Create.
	resp, body := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var id string
	if err := json.Unmarshal(body["id"], &id); err != nil || id == "" {
		t.Fatalf("create returned id %q (%v)", body["id"], err)
	}

	// Append one window of samples: exactly one verdict, at seq window-1.
	script := serve.Script(3, 0, window+2)
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/samples", script[:window])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	var verdicts []serve.Verdict
	if err := json.Unmarshal(body["verdicts"], &verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 1 || verdicts[0].Seq != window-1 {
		t.Fatalf("verdicts = %+v, want one at seq %d", verdicts, window-1)
	}

	// Two more samples: two more verdicts, consecutive seqs.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/samples", script[window:])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body["verdicts"], &verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 || verdicts[0].Seq != window || verdicts[1].Seq != window+1 {
		t.Fatalf("verdicts = %+v, want seqs %d,%d", verdicts, window, window+1)
	}

	// Long-poll read from 0 returns all three.
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/verdicts?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var poll struct {
		Verdicts []serve.Verdict `json:"verdicts"`
		Closed   bool            `json:"closed"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if len(poll.Verdicts) != 3 || poll.Closed {
		t.Fatalf("poll = %+v, want 3 verdicts, open", poll)
	}

	// Stats sees the session.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Sessions int    `json:"sessions"`
		Samples  int    `json:"samples"`
		Verdicts int    `json:"verdicts"`
		Prec     string `json:"precision"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Sessions != 1 || stats.Samples != window+2 || stats.Verdicts != 3 || stats.Prec != "f32" {
		t.Fatalf("stats = %+v", stats)
	}

	// Delete; the session is gone.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+id+"/samples", script[:1])
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to deleted session: status %d, want 404", resp.StatusCode)
	}

	// Invalid wrapper config is rejected up front.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{DebounceM: 5, DebounceN: 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad debounce: status %d, want 400", resp.StatusCode)
	}
}

func TestServerMaxSessions(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxSessions: 1})
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", resp.StatusCode)
	}
}

func TestServerIdleEviction(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{IdleTimeout: 50 * time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	var id string
	_ = json.Unmarshal(body["id"], &id)
	// Poll stats (which does not refresh session activity) until the
	// janitor evicts the idle session.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Sessions int `json:"sessions"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if stats.Sessions == 0 {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session %s never evicted", id)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// loadDigest runs the deterministic load fleet against a fresh server with
// the given config and returns the verdict digest.
func loadDigest(t *testing.T, serverCfg serve.Config, mode string) *serve.LoadResult {
	t.Helper()
	srv, ts := newTestServer(t, serverCfg)
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:           ts.URL,
		Sessions:          5,
		SamplesPerSession: 20,
		Mode:              mode,
		Seed:              99,
		Session: serve.SessionConfig{
			DebounceM: 2, DebounceN: 3,
			CUSUMK: 0.6, CUSUMH: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantVerdicts := 5 * (20 - (srv.Window() - 1))
	if res.Verdicts != wantVerdicts {
		t.Fatalf("got %d verdicts, want %d", res.Verdicts, wantVerdicts)
	}
	return res
}

func createSession(t *testing.T, base string, cfg serve.SessionConfig) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/sessions", cfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var id string
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestServeDeterminism pins the acceptance criterion: for a fixed per-session
// input script, verdict streams are bit-identical regardless of transport
// mode and of how a request's rows are cut into scoring blocks. The loadgen
// arms compare whole-fleet digests; the body arms post warmup plus N rows
// as one JSON array, straddling the block size, and compare every verdict
// (Conf by its bits) with the same script posted one sample per request.
func TestServeDeterminism(t *testing.T) {
	type arm struct {
		name      string
		precision string
		mode      string // loadgen transport; "" for a body arm
		bodyRows  int
	}
	type rig struct {
		url  string
		warm int             // samples before the first verdict
		ref  []serve.Verdict // the longest script, one sample per request
	}
	sessCfg := serve.SessionConfig{DebounceM: 2, DebounceN: 3, CUSUMK: 0.6, CUSUMH: 2}
	arms := []arm{
		{name: "stream", mode: "stream"},
		{name: "request", mode: "request"},
	}
	rigs := map[string]*rig{}
	for _, p := range []string{serve.PrecisionF32, serve.PrecisionF64} {
		for _, n := range []int{1, 31, 32, 33, 64, 65, 283} {
			arms = append(arms, arm{name: fmt.Sprintf("%s-body%d", p, n), precision: p, bodyRows: n})
		}
		srv, ts := newTestServer(t, serve.Config{Precision: p})
		r := &rig{url: ts.URL, warm: srv.Window() - 1}
		script := serve.Script(21, 0, r.warm+283)
		id := createSession(t, ts.URL, sessCfg)
		for i := range script {
			status, vs, err := postSamples(http.DefaultClient, ts.URL, id, script[i:i+1])
			if err != nil || status != http.StatusOK {
				t.Fatalf("%s row-at-a-time append %d: status %d (%v)", p, i, status, err)
			}
			r.ref = append(r.ref, vs...)
		}
		rigs[p] = r
	}
	var digest string
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			if a.mode != "" {
				res := loadDigest(t, serve.Config{}, a.mode)
				t.Logf("digest %s (p50 %v p99 %v)", res.Digest[:12], res.P50, res.P99)
				if digest == "" {
					digest = res.Digest
				} else if res.Digest != digest {
					t.Fatalf("verdicts diverge: %s vs %s", res.Digest, digest)
				}
				return
			}
			r := rigs[a.precision]
			id := createSession(t, r.url, sessCfg)
			status, got, err := postSamples(http.DefaultClient, r.url, id, serve.Script(21, 0, r.warm+a.bodyRows))
			if err != nil || status != http.StatusOK {
				t.Fatalf("body append: status %d (%v)", status, err)
			}
			if len(got) != a.bodyRows {
				t.Fatalf("%d verdicts, want %d", len(got), a.bodyRows)
			}
			for i, v := range got {
				w := r.ref[i]
				if v.Seq != w.Seq || v.Unsafe != w.Unsafe || v.Raw != w.Raw || v.Drift != w.Drift ||
					math.Float64bits(v.Conf) != math.Float64bits(w.Conf) {
					t.Fatalf("row %d: body verdict %+v, row-at-a-time %+v", i, v, w)
				}
			}
		})
	}
}

// TestServeDeterminismF64 pins the same contract for the f64 escape hatch.
func TestServeDeterminismF64(t *testing.T) {
	a := loadDigest(t, serve.Config{Precision: serve.PrecisionF64}, "stream")
	b := loadDigest(t, serve.Config{Precision: serve.PrecisionF64}, "request")
	if a.Digest != b.Digest {
		t.Fatalf("f64 stream %s vs request %s", a.Digest, b.Digest)
	}
}

// TestServerBodyLimits checks that each oversized input is refused with 413
// and the JSON error shape, and that it leaves the session untouched.
func TestServerBodyLimits(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	post := func(path, contentType string, body []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: decode error body: %v", path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || out.Error == "" {
			t.Fatalf("%s (%d bytes): status %d error %q, want 413 with a message", path, len(body), resp.StatusCode, out.Error)
		}
	}
	// Unknown fields are ignored, so padding keeps each body valid JSON
	// that only its size makes unacceptable.
	pad := func(n int) string { return strings.Repeat("x", n) }

	post("/v1/sessions", "application/json", []byte(`{"pad":"`+pad(65<<10)+`"}`))

	id := createSession(t, ts.URL, serve.SessionConfig{})
	samplesURL := "/v1/sessions/" + id + "/samples"
	var big bytes.Buffer
	big.WriteString("[")
	for big.Len() <= 1<<20 {
		big.WriteString(`{"cgm":120,"iob":1,"rate":1},`)
	}
	big.WriteString(`{"cgm":120,"iob":1,"rate":1}]`)
	post(samplesURL, "application/json", big.Bytes())
	for _, n := range []int{5 << 10, 100 << 10} {
		post(samplesURL, "application/x-ndjson", []byte(`{"cgm":120,"iob":1,"rate":1,"pad":"`+pad(n)+`"}`+"\n"))
	}

	status, vs, err := postSamples(http.DefaultClient, ts.URL, id, serve.Script(3, 0, srv.Window()))
	if err != nil || status != http.StatusOK || len(vs) != 1 || vs[0].Seq != srv.Window()-1 {
		t.Fatalf("append after refusals: status %d verdicts %+v (%v), want one at seq %d", status, vs, err, srv.Window()-1)
	}
}

// TestServerDrainOnClose closes the server while unary and NDJSON appends
// are in flight: every append gets either 200 with all its verdicts or
// 503, and none hangs.
func TestServerDrainOnClose(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{})
	warm := srv.Window() - 1
	client := &http.Client{Timeout: 20 * time.Second}
	const workers, rows = 8, 8
	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		mu      sync.Mutex
		oks     int
		refused int
	)
	errc := make(chan error, workers)
	started.Add(workers)
	for w := 0; w < workers; w++ {
		id := createSession(t, ts.URL, serve.SessionConfig{})
		stream := w%2 == 1
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			script := serve.Script(int64(w), w, 1<<12)
			sent, first := 0, true
			for k := 0; sent+rows <= len(script); k++ {
				body := script[sent : sent+rows]
				// Verdicts this append must carry: rows past the warmup.
				want := max(0, sent+rows-warm) - max(0, sent-warm)
				var (
					status, got int
					err         error
				)
				if stream {
					status, got, err = postStream(client, ts.URL, id, body)
				} else {
					var vs []serve.Verdict
					status, vs, err = postSamples(client, ts.URL, id, body)
					got = len(vs)
				}
				if first {
					started.Done()
					first = false
				}
				if err != nil {
					errc <- fmt.Errorf("worker %d append %d: %v", w, k, err)
					return
				}
				switch status {
				case http.StatusOK:
					if got != want {
						errc <- fmt.Errorf("worker %d append %d: 200 with %d verdicts, want %d", w, k, got, want)
						return
					}
					mu.Lock()
					oks++
					mu.Unlock()
				case http.StatusServiceUnavailable:
					mu.Lock()
					refused++
					mu.Unlock()
					return
				default:
					errc <- fmt.Errorf("worker %d append %d: status %d, want 200 or 503", w, k, status)
					return
				}
				sent += rows
			}
			errc <- fmt.Errorf("worker %d never saw the server close", w)
		}(w)
	}
	started.Wait()
	srv.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("appends still hanging 30s after Close")
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if refused != workers {
		t.Fatalf("%d of %d workers saw 503 after Close", refused, workers)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", serve.SessionConfig{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create after Close: status %d, want 503", resp.StatusCode)
	}
	t.Logf("%d appends answered 200 before the drain", oks)
}

// postSamples posts samples to a session as one JSON array and returns the
// status and, on 200, the verdicts of the reply.
func postSamples(client *http.Client, base, id string, samples []serve.Sample) (int, []serve.Verdict, error) {
	body, err := json.Marshal(samples)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(base+"/v1/sessions/"+id+"/samples", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Verdicts []serve.Verdict `json:"verdicts"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return 0, nil, err
		}
	}
	return resp.StatusCode, out.Verdicts, nil
}

// postStream sends samples as one NDJSON upload and returns the status and,
// on 200, the verdict count the summary reports.
func postStream(client *http.Client, base, id string, samples []serve.Sample) (int, int, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return 0, 0, err
		}
	}
	resp, err := client.Post(base+"/v1/sessions/"+id+"/samples", "application/x-ndjson", &body)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int `json:"accepted"`
		Verdicts int `json:"verdicts"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return 0, 0, err
		}
		if out.Accepted != len(samples) {
			return 0, 0, fmt.Errorf("accepted %d of %d samples", out.Accepted, len(samples))
		}
	}
	return resp.StatusCode, out.Verdicts, nil
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := serve.New(serve.Config{}); err == nil {
		t.Fatal("want error for missing monitor")
	}
	if _, err := serve.New(serve.Config{Monitor: testMonitor(t), Precision: "f16"}); err == nil {
		t.Fatal("want error for unknown precision")
	}
	if _, err := serve.New(serve.Config{Monitor: testMonitor(t), Session: serve.SessionConfig{DebounceM: 3, DebounceN: 1}}); err == nil {
		t.Fatal("want error for invalid default debounce")
	}
}
