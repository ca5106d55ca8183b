package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the benchmark around
// a call into a module's public API. Times are offsets from the tracer's
// epoch. Spans of one request share req (e.g. "s-3/17": session, sequence).
type span struct {
	id, parent int
	name       string
	req        string
	lane       int // display row in the trace viewer; concurrent spans use distinct lanes
	start, end time.Duration
}

// tracer keeps spans and counts in memory until the run ends. A nil *tracer
// is the untraced run: every method is a cheap no-op, so traced and untraced
// runs execute the same calls in the same order.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id (0 on a nil tracer). parent 0 marks
// a root span.
func (t *tracer) begin(name string, parent int, req string, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, req: req, lane: lane, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// record adds a span whose start and end the caller measured itself (the
// open-loop generator knows a request's due time only after the fact).
func (t *tracer) record(name string, parent int, req string, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, req: req, lane: lane,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans)
}

// add bumps a named count.
func (t *tracer) add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// snapshot returns every span, indexed by id-1; a span still open ends at
// the time of the snapshot.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
	}
	return out
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen returns the total length covered by ivs clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = (s.end - s.start) - unionLen(children[s.id], s.start, s.end)
	}
	return out
}

// coverage returns the share of root span id's duration covered by its
// direct children, in percent.
func coverage(spans []span, root int) float64 {
	var r span
	var kids []interval
	for _, s := range spans {
		if s.id == root {
			r = s
		}
		if s.parent == root {
			kids = append(kids, interval{s.start, s.end})
		}
	}
	if r.end <= r.start {
		return 0
	}
	return 100 * float64(unionLen(kids, r.start, r.end)) / float64(r.end-r.start)
}

// coverageOf is coverage over several roots, weighted by their durations.
func coverageOf(spans []span, roots []int) float64 {
	var covered, total float64
	for _, id := range roots {
		d := float64(spans[id-1].end - spans[id-1].start)
		covered += coverage(spans, id) / 100 * d
		total += d
	}
	if total == 0 {
		return 0
	}
	return 100 * covered / total
}

// spanCost measures what one begin/end pair costs on this host, so the
// tracing overhead of a run can be stated as spans × cost ÷ wall.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", 0, "", 0))
	}
	return time.Since(t0) / n
}

// traceEvent is one Chrome trace-event record ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing), with each span's self time and the run's counts and
// host record as metadata.
func writeChrome(w io.Writer, spans []span, counts map[string]int64, meta map[string]any) error {
	self := selfTimes(spans)
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "self_us": float64(self[s.id]) / 1e3}
		if s.req != "" {
			args["req"] = s.req
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane + 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"counts": counts, "host": meta},
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
