package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// client speaks the server's public HTTP API over at most conns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out; any status other
// than want is an error carrying the server's message.
func (c *client) do(ctx context.Context, method, path, ctype string, body io.Reader, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
	}
	return nil
}

// createSession opens a session with the server's default configuration.
func (c *client) createSession(ctx context.Context) (id string, window int, err error) {
	var out struct {
		ID     string `json:"id"`
		Window int    `json:"window"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", "", nil, http.StatusCreated, &out); err != nil {
		return "", 0, err
	}
	return out.ID, out.Window, nil
}

// appendSamples posts samples as one JSON array and returns the verdicts
// the reply carries.
func (c *client) appendSamples(ctx context.Context, id string, samples []serve.Sample) ([]serve.Verdict, error) {
	body, err := json.Marshal(samples)
	if err != nil {
		return nil, err
	}
	var out struct {
		Accepted int             `json:"accepted"`
		Verdicts []serve.Verdict `json:"verdicts"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/samples", "application/json", bytes.NewReader(body), http.StatusOK, &out); err != nil {
		return nil, err
	}
	if out.Accepted != len(samples) {
		return nil, fmt.Errorf("session %s accepted %d of %d samples", id, out.Accepted, len(samples))
	}
	return out.Verdicts, nil
}

func (c *client) deleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, "", nil, http.StatusOK, nil)
}

// batcherStats reads the dispatcher counters from /v1/stats; ok is false
// when the server reports none (no batcher in its serving path).
func (c *client) batcherStats(ctx context.Context) (bs serve.BatcherStats, ok bool, err error) {
	var out map[string]json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, http.StatusOK, &out); err != nil {
		return bs, false, err
	}
	raw, ok := out["batcher"]
	if !ok {
		return bs, false, nil
	}
	if err := json.Unmarshal(raw, &bs); err != nil {
		return bs, false, fmt.Errorf("decode batcher stats: %w", err)
	}
	return bs, true, nil
}

// uploadStream sends samples as one NDJSON upload to a fresh session and
// reads the verdicts back on the stream endpoint. It returns the verdicts
// and the time from the upload's first line to its last verdict.
func (c *client) uploadStream(ctx context.Context, id string, samples []serve.Sample, expect int) ([]serve.Verdict, time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sessions/"+id+"/stream?max="+strconv.Itoa(expect), nil)
	if err != nil {
		return nil, 0, err
	}
	sresp, err := c.hc.Do(sreq)
	if err != nil {
		return nil, 0, err
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("stream %s: status %d", id, sresp.StatusCode)
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return nil, 0, err
		}
	}

	type readResult struct {
		verdicts []serve.Verdict
		last     time.Time
		err      error
	}
	got := make(chan readResult, 1)
	go func() {
		var r readResult
		dec := json.NewDecoder(bufio.NewReader(sresp.Body))
		for len(r.verdicts) < expect {
			var v serve.Verdict
			if err := dec.Decode(&v); err != nil {
				r.err = fmt.Errorf("stream %s: verdict %d: %w", id, len(r.verdicts), err)
				break
			}
			r.verdicts = append(r.verdicts, v)
		}
		r.last = time.Now()
		got <- r
	}()

	t0 := time.Now()
	var sum struct {
		Accepted int `json:"accepted"`
		Verdicts int `json:"verdicts"`
	}
	postErr := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/samples", "application/x-ndjson", &body, http.StatusOK, &sum)
	if postErr != nil {
		cancel() // unblocks the reader
	}
	r := <-got
	switch {
	case postErr != nil:
		return nil, 0, postErr
	case r.err != nil:
		return nil, 0, r.err
	case sum.Accepted != len(samples) || sum.Verdicts != expect:
		return nil, 0, fmt.Errorf("upload %s: accepted %d/%d, %d verdicts, want %d", id, sum.Accepted, len(samples), sum.Verdicts, expect)
	}
	return r.verdicts, r.last.Sub(t0), nil
}

// digest fingerprints a verdict sequence bit for bit.
func digest(vs []serve.Verdict) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Seq))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Conf))
		h.Write(buf[:])
		flags := byte(0)
		for i, b := range []bool{v.Unsafe, v.Raw, v.Drift} {
			if b {
				flags |= 1 << i
			}
		}
		h.Write([]byte{flags})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// patientScript is one synthetic patient's pump trace: a CGM random walk
// with meal bumps, a basal rate a controller would plausibly issue, and the
// insulin on board that rate accumulates. The same (seed, patient) gives
// the same trace.
func patientScript(seed int64, patient, n int) []serve.Sample {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(patient)*7_919 + 17))
	cgm := 90 + 90*r.Float64()
	iob := 2 * r.Float64()
	meal := 0.0
	out := make([]serve.Sample, n)
	for i := range out {
		if r.Float64() < 1.0/48 { // a meal every four hours on average at 5-minute steps
			meal = 20 + 40*r.Float64()
		}
		cgm += meal/6 - (cgm-120)*0.02 - iob*0.8 + 3*r.NormFloat64()
		meal *= 0.8
		cgm = math.Min(400, math.Max(40, cgm))
		rate := math.Min(4, math.Max(0, 1+(cgm-120)/60+0.2*r.NormFloat64()))
		iob = math.Min(8, math.Max(0, iob*0.96+rate/12))
		out[i] = serve.Sample{CGM: cgm, IOB: iob, Rate: rate}
	}
	return out
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due     time.Duration // offset from the phase start
	patient int
}

// schedule lays out n arrivals at rate per second: each patient posts one
// reading per period (patients ÷ rate), as a CGM does, at a phase drawn once
// per patient. Phases are stratified, one per 1/patients of the period, so
// the aggregate stays close to the nominal rate and no seed draws a burst of
// patients that would queue behind one another.
func schedule(rng *rand.Rand, rate float64, n, patients int) []arrival {
	period := float64(patients) / rate
	phase := make([]float64, patients)
	for p := range phase {
		phase[p] = (float64(p) + rng.Float64()) / float64(patients) * period
	}
	order := rng.Perm(patients) // which patient holds which phase slot
	out := make([]arrival, 0, n)
	for k := 0; len(out) < n; k++ {
		for slot := 0; slot < patients && len(out) < n; slot++ {
			t := phase[slot] + float64(k)*period
			out = append(out, arrival{due: time.Duration(t * float64(time.Second)), patient: order[slot]})
		}
	}
	return out
}

// sample is one timed request of the open loop. Latency runs from due, so
// a stalled server also delays every request due while it stalled.
type sample struct {
	patient, seq int
	// ready is when the request could go: its due time, or later when the
	// patient's previous request was still open then.
	due, ready, woke, sent, at time.Time
	lane                       int
	err                        error
}

func (s sample) latency() time.Duration  { return s.at.Sub(s.due) }
func (s sample) lag() time.Duration      { return s.woke.Sub(s.ready) }
func (s sample) connWait() time.Duration { return s.sent.Sub(s.due) }
func (s sample) rtt() time.Duration      { return s.at.Sub(s.sent) }

// sender performs one request for patient; lane identifies the connection
// worker that sends it.
type sender func(ctx context.Context, patient, lane int) (seq int, err error)

// openLoop drives arrivals on schedule from start. Each patient has at most
// one request in flight: a patient whose previous request is still open
// sends its next one when that completes, and the wait counts against the
// later request's latency. conns workers carry the requests, so no more
// than conns connections are ever open.
func openLoop(ctx context.Context, start time.Time, arrivals []arrival, patients, conns int, send sender) []sample {
	perPatient := make([][]int, patients)
	for i, a := range arrivals {
		perPatient[a.patient] = append(perPatient[a.patient], i)
	}
	type job struct {
		s    *sample
		done chan struct{}
	}
	out := make([]sample, len(arrivals))
	// Sized to the number of sends, so a patient never blocks handing off.
	jobs := make(chan job, len(arrivals))
	var workers sync.WaitGroup
	for w := 0; w < conns; w++ {
		workers.Add(1)
		go func(lane int) {
			defer workers.Done()
			for j := range jobs {
				j.s.sent = time.Now()
				j.s.lane = lane
				j.s.seq, j.s.err = send(ctx, j.s.patient, lane)
				j.s.at = time.Now()
				close(j.done)
			}
		}(w)
	}
	var pats sync.WaitGroup
	for p := range perPatient {
		pats.Add(1)
		go func(idx []int) {
			defer pats.Done()
			var prev time.Time
			for _, i := range idx {
				s := &out[i]
				s.patient = arrivals[i].patient
				s.due = start.Add(arrivals[i].due)
				s.ready = s.due
				if prev.After(s.ready) {
					s.ready = prev
				}
				if wait := time.Until(s.due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				s.woke = time.Now()
				if ctx.Err() != nil {
					s.sent, s.at, s.err = s.woke, s.woke, ctx.Err()
					continue
				}
				j := job{s: s, done: make(chan struct{})}
				jobs <- j
				<-j.done
				prev = s.at
			}
		}(perPatient[p])
	}
	pats.Wait()
	close(jobs)
	workers.Wait()
	return out
}
