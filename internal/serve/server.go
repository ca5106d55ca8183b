package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/monitor"
)

// Config assembles a monitor-serving endpoint.
type Config struct {
	// Monitor is the trained monitor to serve (required).
	Monitor *monitor.MLMonitor
	// Precision selects the inference arithmetic: "" or "f32" (default) is
	// the frozen float32 engine, "f64" the canonical double-precision
	// escape hatch.
	Precision string
	// MaxSessions caps live sessions (default 1024); creation beyond it is
	// rejected with 429.
	MaxSessions int
	// IdleTimeout evicts sessions with no traffic for this long (default
	// 5m; < 0 disables eviction).
	IdleTimeout time.Duration
	// Session provides wrapper defaults for sessions that do not override
	// them at creation.
	Session SessionConfig
}

// Server is the streaming monitor-as-a-service HTTP handler.
//
//	POST   /v1/sessions                  create (body: SessionConfig, optional)
//	POST   /v1/sessions/{id}/samples     append samples: JSON array, or NDJSON
//	                                     stream with Content-Type application/x-ndjson
//	GET    /v1/sessions/{id}/verdicts    long-poll: ?from=N&wait=2s
//	GET    /v1/sessions/{id}/stream      chunked NDJSON verdict stream: ?from=N&max=M
//	DELETE /v1/sessions/{id}             close one session
//	GET    /v1/stats                     session, sample and verdict counters
//	GET    /healthz                      liveness
//
// Request bodies are bounded (maxCreateBytes, maxAppendBytes, and
// maxLineBytes per NDJSON line); an oversized one is answered with 413.
type Server struct {
	cfg      Config
	window   int
	classify classifyFunc
	protoM   *monitor.MOfN  // default debounce prototype (nil if disabled)
	protoC   *monitor.CUSUM // default drift prototype (nil if disabled)

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	closed   bool

	evictStop chan struct{}
	evictWG   sync.WaitGroup
}

// Request body limits. The body is the only bound on one request's work:
// a day-long 288-sample unary upload is ~17 KB.
const (
	maxCreateBytes = 64 << 10 // session-config JSON
	maxAppendBytes = 1 << 20  // unary JSON sample array
	maxLineBytes   = 4 << 10  // one NDJSON sample line
)

// New builds a Server and starts its idle-eviction janitor, when enabled.
// Callers own Close.
func New(cfg Config) (*Server, error) {
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("serve: config needs a monitor")
	}
	window := cfg.Monitor.Window()
	if window < 2 {
		return nil, fmt.Errorf("serve: monitor window %d, want ≥ 2", window)
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	s := &Server{
		cfg:      cfg,
		window:   window,
		sessions: make(map[string]*session),
	}
	var err error
	if s.protoM, s.protoC, err = buildWrappers(cfg.Session); err != nil {
		return nil, fmt.Errorf("serve: default session config: %w", err)
	}
	if s.classify, err = newClassify(cfg.Monitor, cfg.Precision); err != nil {
		return nil, err
	}
	if cfg.IdleTimeout > 0 {
		s.evictStop = make(chan struct{})
		s.evictWG.Add(1)
		go s.evictLoop()
	}
	return s, nil
}

func buildWrappers(cfg SessionConfig) (*monitor.MOfN, *monitor.CUSUM, error) {
	var (
		deb   *monitor.MOfN
		drift *monitor.CUSUM
		err   error
	)
	if cfg.DebounceM != 0 || cfg.DebounceN != 0 {
		if deb, err = monitor.NewMOfN(cfg.DebounceM, cfg.DebounceN); err != nil {
			return nil, nil, err
		}
	}
	if cfg.CUSUMH != 0 {
		if drift, err = monitor.NewCUSUM(cfg.CUSUMK, cfg.CUSUMH); err != nil {
			return nil, nil, err
		}
	}
	return deb, drift, nil
}

// Window returns the monitor's context window (samples per verdict warmup).
func (s *Server) Window() int { return s.window }

// Close evicts every session and stops the idle-eviction janitor.
// Idempotent. Shutting a session waits for its in-flight append, so
// admitted appends still receive their verdicts and later ones get 503.
// When fronted by an http.Server, call its Shutdown first so no new
// requests race the drain.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	if !already && s.evictStop != nil {
		close(s.evictStop)
	}
	for _, sess := range open {
		sess.shut()
	}
	if s.evictStop != nil {
		s.evictWG.Wait()
	}
}

func (s *Server) evictLoop() {
	defer s.evictWG.Done()
	period := s.cfg.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.evictStop:
			return
		case now := <-t.C:
			deadline := now.Add(-s.cfg.IdleTimeout)
			s.mu.Lock()
			var stale []*session
			for id, sess := range s.sessions {
				if sess.stale(deadline) {
					stale = append(stale, sess)
					delete(s.sessions, id)
				}
			}
			s.mu.Unlock()
			for _, sess := range stale {
				sess.shut()
			}
		}
	}
}

// ServeHTTP implements http.Handler with Go 1.21-compatible manual routing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	case path == "/v1/stats":
		s.handleStats(w, r)
	case path == "/v1/sessions" || path == "/v1/sessions/":
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		s.handleCreate(w, r)
	case strings.HasPrefix(path, "/v1/sessions/"):
		rest := strings.TrimPrefix(path, "/v1/sessions/")
		id, sub, _ := strings.Cut(rest, "/")
		if id == "" {
			httpError(w, http.StatusNotFound, "missing session id")
			return
		}
		s.handleSession(w, r, id, sub)
	default:
		httpError(w, http.StatusNotFound, "no such route")
	}
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request, id, sub string) {
	sess, closed := s.lookup(id)
	if sess == nil {
		if closed {
			httpError(w, http.StatusServiceUnavailable, "server closing")
		} else {
			httpError(w, http.StatusNotFound, "no such session")
		}
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodDelete:
		s.handleDelete(w, sess)
	case sub == "samples" && r.Method == http.MethodPost:
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
			s.handleIngestStream(w, r, sess)
		} else {
			s.handleAppend(w, r, sess)
		}
	case sub == "verdicts" && r.Method == http.MethodGet:
		s.handleVerdicts(w, r, sess)
	case sub == "stream" && r.Method == http.MethodGet:
		s.handleStream(w, r, sess)
	default:
		httpError(w, http.StatusNotFound, "no such route")
	}
}

// lookup returns the live session with this id (nil if none) and whether
// the server is closing.
func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id], s.closed
}

// decodeBody decodes one JSON value from r's body, read through a limit
// bytes cap: an oversized body is answered with 413, any other decode
// failure with 400. It reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s over %d bytes", what, limit))
	} else {
		httpError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
	}
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	cfg := s.cfg.Session
	if r.ContentLength != 0 && !decodeBody(w, r, maxCreateBytes, "session config", &cfg) {
		return
	}
	var (
		deb   *monitor.MOfN
		drift *monitor.CUSUM
	)
	if cfg == s.cfg.Session {
		// Default config: clone the validated prototypes instead of sharing
		// them — wrapper state is strictly per-session.
		if s.protoM != nil {
			deb = s.protoM.Clone()
		}
		if s.protoC != nil {
			drift = s.protoC.Clone()
		}
	} else {
		var err error
		if deb, drift, err = buildWrappers(cfg); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server closing")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session limit reached")
		return
	}
	s.nextID++
	id := "s-" + strconv.Itoa(s.nextID)
	sess := newSession(id, s.window, cfg, deb, drift, time.Now())
	s.sessions[id] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":     id,
		"window": s.window,
		"warmup": s.window - 1,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.shut()
	writeJSON(w, http.StatusOK, map[string]any{"closed": sess.id})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request, sess *session) {
	var raw []Sample
	if !decodeBody(w, r, maxAppendBytes, "samples", &raw) {
		return
	}
	verdicts, err := sess.ingest(s.cfg.Monitor, s.classify, raw)
	if err != nil {
		appendError(w, err)
		return
	}
	if verdicts == nil {
		verdicts = []Verdict{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": len(raw), "verdicts": verdicts})
}

// handleIngestStream consumes an NDJSON sample stream, scoring lines as
// they arrive; the client reads verdicts over a parallel GET stream. The
// response is a single summary object at EOF.
//
// Lines are chunked adaptively: everything already buffered is scored as
// one block (up to blockRows lines) but the handler never waits for more
// input, so a client dribbling single samples still sees per-sample
// latency while a pipelining client gets block ingest for free. Samples
// within a session stay strictly ordered either way, which is what keeps
// the verdict stream bit-identical across chunk shapes. A line longer than
// maxLineBytes ends the stream with 413.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request, sess *session) {
	br := bufio.NewReaderSize(r.Body, 64<<10)
	chunk := make([]Sample, 0, blockRows)
	accepted, emitted := 0, 0
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		verdicts, err := sess.ingest(s.cfg.Monitor, s.classify, chunk)
		if err != nil {
			appendError(w, err)
			return false
		}
		accepted += len(chunk)
		emitted += len(verdicts)
		chunk = chunk[:0]
		return true
	}
	for {
		// ReadSlice's line aliases br's buffer, so it is decoded before the
		// next read; a line that overflows the buffer is ErrBufferFull.
		line, err := br.ReadSlice('\n')
		if len(line) > maxLineBytes || err == bufio.ErrBufferFull {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("sample %d: line over %d bytes", accepted+len(chunk), maxLineBytes))
			return
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var smp Sample
			if uerr := json.Unmarshal(line, &smp); uerr != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("sample %d: %v", accepted+len(chunk), uerr))
				return
			}
			chunk = append(chunk, smp)
		}
		if err != nil {
			if err != io.EOF {
				httpError(w, http.StatusBadRequest, "ingest stream: "+err.Error())
				return
			}
			if !flush() {
				return
			}
			break
		}
		if len(chunk) >= blockRows || br.Buffered() == 0 {
			if !flush() {
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": accepted, "verdicts": emitted})
}

func appendError(w http.ResponseWriter, err error) {
	if errors.Is(err, errSessionClosed) {
		httpError(w, http.StatusServiceUnavailable, err.Error())
	} else {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request, sess *session) {
	from := queryInt(r, "from", 0)
	wait, err := queryWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline := time.Now().Add(wait)
	for {
		verdicts, ch, closed := sess.read(from)
		if len(verdicts) > 0 || closed || wait == 0 {
			if verdicts == nil {
				verdicts = []Verdict{}
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"from":     from,
				"verdicts": verdicts,
				"closed":   closed,
			})
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			writeJSON(w, http.StatusOK, map[string]any{"from": from, "verdicts": []Verdict{}, "closed": false})
			return
		}
		select {
		case <-ch:
		case <-time.After(remain):
		case <-r.Context().Done():
			return
		}
	}
}

// handleStream writes verdicts as chunked NDJSON as they appear, ending at
// ?max=M verdicts (0 = until the session closes or the client goes away).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, sess *session) {
	from := queryInt(r, "from", 0)
	max := queryInt(r, "max", 0)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the headers to the wire immediately: clients block on them before
	// starting the ingest stream that produces the first verdict.
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	sent := 0
	for {
		verdicts, ch, closed := sess.read(from)
		for _, v := range verdicts {
			if err := enc.Encode(v); err != nil {
				return
			}
			from++
			sent++
			if max > 0 && sent >= max {
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
		}
		if len(verdicts) > 0 && flusher != nil {
			flusher.Flush()
		}
		if len(verdicts) > 0 {
			continue
		}
		if closed {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	samples, verdicts := 0, 0
	for _, sess := range open {
		in, out := sess.counts()
		samples += in
		verdicts += out
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions":  len(open),
		"samples":   samples,
		"verdicts":  verdicts,
		"window":    s.window,
		"precision": precisionName(s.cfg.Precision),
	})
}

// BatcherStats is the counter record of the cross-session micro-batcher
// that earlier servers reported under the "batcher" key of /v1/stats.
//
// Deprecated: the server classifies every request inline and reports no
// batcher. The type remains so clients that decode it keep building.
type BatcherStats struct {
	Flushes         int64 `json:"flushes"`
	FusedRows       int64 `json:"fused_rows"`
	SizeFlushes     int64 `json:"size_flushes"`
	DeadlineFlushes int64 `json:"deadline_flushes"`
	DrainFlushes    int64 `json:"drain_flushes"`
	Rejected        int64 `json:"rejected"`
}

func precisionName(p string) string {
	if p == "" {
		return PrecisionF32
	}
	return p
}

func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func queryWait(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %w", v, err)
	}
	if d < 0 {
		d = 0
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}
