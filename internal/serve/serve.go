// Package serve is the hardened HTTP/JSON query service over the paper's
// co-design model: closed-form pricing (Eqs. 1–2) and optimization on a
// cheap lane, live deterministic simulations on a tightly bounded heavy
// lane. The robustness machinery is the point of the package:
//
//   - per-request deadlines whose context cancellation is threaded into
//     internal/sim, so an abandoned simulation stops burning CPU;
//   - two-lane admission control with bounded queues that sheds heavy work
//     with a typed 429 + Retry-After before it can starve cheap queries;
//   - singleflight coalescing and a content-addressed LRU over the
//     canonical query tuple (every answer is deterministic);
//   - panic recovery returning structured errors, and graceful drain:
//     stop accepting, finish or cancel in-flight by deadline, flush
//     metrics.
//
// See docs/SERVE.md for the endpoint reference and an example session.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfscale/internal/machine"
)

// Options configures a Server. The zero value serves the simdefault
// machine with conservative capacity bounds; any field left zero keeps its
// default. Negative queue sizes mean "no queue" (shed when all workers are
// busy).
type Options struct {
	// Machine is the default machine model for requests that do not name a
	// preset. Zero value means machine.SimDefault().
	Machine machine.Params

	// CheapWorkers/CheapQueue bound the closed-form lane (/price,
	// /optimize). Defaults: 2·GOMAXPROCS workers, 256 queued.
	CheapWorkers int
	CheapQueue   int
	// HeavyWorkers/HeavyQueue bound the simulation lane (/simulate).
	// Defaults: 2 workers, 2 queued — live simulations burn a goroutine
	// per rank, so the pool stays small.
	HeavyWorkers int
	HeavyQueue   int

	// CheapDeadline and HeavyDeadline are the default per-request
	// deadlines (2s and 30s); a request may lower or raise its own with
	// ?deadline_ms=, capped at MaxDeadline (120s).
	CheapDeadline time.Duration
	HeavyDeadline time.Duration
	MaxDeadline   time.Duration

	// MaxSimRanks and MaxSimN shed oversized /simulate requests at the
	// door with a typed 429: p = q²·c above MaxSimRanks (default 1024) or
	// n above MaxSimN (default 4096) will never be admitted.
	MaxSimRanks int
	MaxSimN     int

	// CacheEntries bounds the response LRU (default 1024 entries).
	CacheEntries int

	// MetricsSink receives the final metrics snapshot (JSON) when the
	// server drains. Nil discards it.
	MetricsSink io.Writer
}

func (o Options) withDefaults() Options {
	if o.Machine.Name == "" {
		o.Machine = machine.SimDefault()
	}
	if o.CheapWorkers == 0 {
		o.CheapWorkers = 2 * runtime.GOMAXPROCS(0)
	}
	if o.CheapQueue == 0 {
		o.CheapQueue = 256
	}
	if o.HeavyWorkers == 0 {
		o.HeavyWorkers = 2
	}
	if o.HeavyQueue == 0 {
		o.HeavyQueue = 2
	}
	if o.CheapDeadline == 0 {
		o.CheapDeadline = 2 * time.Second
	}
	if o.HeavyDeadline == 0 {
		o.HeavyDeadline = 30 * time.Second
	}
	if o.MaxDeadline == 0 {
		o.MaxDeadline = 120 * time.Second
	}
	if o.MaxSimRanks == 0 {
		o.MaxSimRanks = 1024
	}
	if o.MaxSimN == 0 {
		o.MaxSimN = 4096
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 1024
	}
	return o
}

// Server is the query service. Create with New, expose via Handler, stop
// with Drain.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	cheap   *lane
	heavy   *lane
	cache   *queryCache
	metrics *Metrics

	// draining is set once; after that managed endpoints refuse new work.
	// mu guards the in-flight registry against a drain racing admission.
	draining atomic.Bool
	mu       sync.Mutex
	wg       sync.WaitGroup
	inflight map[int64]context.CancelFunc
	nextID   int64

	// testHeavyHold, when set by a test, runs inside the heavy lane while
	// holding a worker slot — the deterministic way to wedge the lane at
	// capacity in the saturation test.
	testHeavyHold func(ctx context.Context)
}

// New creates a Server with opts (zero fields take defaults).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		cheap:    newLane("cheap", opts.CheapWorkers, opts.CheapQueue),
		heavy:    newLane("heavy", opts.HeavyWorkers, opts.HeavyQueue),
		cache:    newQueryCache(opts.CacheEntries),
		metrics:  newMetrics(time.Now()),
		inflight: make(map[int64]context.CancelFunc),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.Handle("/price", s.managed("cheap", s.opts.CheapDeadline, s.handlePrice))
	s.mux.Handle("/optimize", s.managed("cheap", s.opts.CheapDeadline, s.handleOptimize))
	s.mux.Handle("/simulate", s.managed("heavy", s.opts.HeavyDeadline, s.handleSimulate))
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (for tests and cmd/bench).
func (s *Server) Metrics() *Metrics { return s.metrics }

// apiError is the structured error body every failure path returns.
type apiError struct {
	// Status is the HTTP status (not serialized).
	Status int `json:"-"`
	// Code is a stable machine-readable cause: bad_request, overloaded,
	// deadline, infeasible, draining, sim_failed, internal.
	Code        string `json:"error"`
	Detail      string `json:"detail,omitempty"`
	Lane        string `json:"lane,omitempty"`
	Reason      string `json:"reason,omitempty"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Detail: fmt.Sprintf(format, args...)}
}

// statusWriter records the response status for metrics and forwards
// Flush for streaming endpoints.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// Flush forwards to the underlying writer so NDJSON streams go out as they
// are produced.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON renders v with status; encoding problems fall back to a 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal","detail":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n')) // a failed write means the client left
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	writeJSON(w, e.Status, e)
}

// queryHandler is an endpoint body run under the managed middleware.
type queryHandler func(ctx context.Context, w *statusWriter, req *http.Request)

// managed wraps an endpoint with the robustness middleware: panic
// recovery, drain refusal, in-flight tracking, the per-request deadline
// and outcome metrics.
func (s *Server) managed(laneName string, defaultDeadline time.Duration, h queryHandler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		start := time.Now()
		w := &statusWriter{ResponseWriter: rw}
		cancelled := false
		var tracked *int64 // set once the request is in the in-flight table
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.recordPanic()
				if !w.wrote {
					writeAPIError(w, &apiError{
						Status: http.StatusInternalServerError,
						Code:   "internal",
						Detail: fmt.Sprintf("handler panicked: %v", rec),
					})
				}
			}
			s.metrics.record(laneName, w.status(), time.Since(start), cancelled)
			// Untrack after recording: Drain snapshots the metrics as soon
			// as the last in-flight request is gone.
			if tracked != nil {
				s.untrack(*tracked)
			}
		}()

		deadline := defaultDeadline
		if raw := req.URL.Query().Get("deadline_ms"); raw != "" {
			ms, err := strconv.Atoi(raw)
			if err != nil || ms <= 0 {
				writeAPIError(w, badRequest("deadline_ms must be a positive integer, got %q", raw))
				return
			}
			deadline = time.Duration(ms) * time.Millisecond
		}
		if deadline > s.opts.MaxDeadline {
			deadline = s.opts.MaxDeadline
		}
		ctx, cancel := context.WithTimeout(req.Context(), deadline)
		defer cancel()

		id, ok := s.track(cancel)
		if !ok {
			writeAPIError(w, &apiError{
				Status: http.StatusServiceUnavailable,
				Code:   "draining",
				Detail: "server is draining; not accepting new work",
			})
			return
		}
		tracked = &id

		h(ctx, w, req)
		// The ?deadline_ms timeout lives on the derived ctx, not on
		// req.Context(), so checking the request context here missed every
		// deadline expiry and undercounted cancellations.
		if ctx.Err() != nil {
			cancelled = true
		}
	})
}

// track registers a request's cancel func for forced drain; it refuses
// (ok=false) once draining has begun.
func (s *Server) track(cancel context.CancelFunc) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return 0, false
	}
	s.nextID++
	id := s.nextID
	s.inflight[id] = cancel
	s.wg.Add(1)
	return id, true
}

func (s *Server) untrack(id int64) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
	s.wg.Done()
}

// InFlight reports the number of tracked requests (for tests).
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Drain gracefully stops the server: new managed requests are refused with
// a 503, in-flight requests are given until ctx expires to finish, then
// their contexts are cancelled — which aborts any running simulations —
// and Drain waits for them to unwind. The final metrics snapshot is
// written to Options.MetricsSink (if set) and returned; the error reports
// a sink write failure.
func (s *Server) Drain(ctx context.Context) (Snapshot, error) {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, cancel := range s.inflight {
			cancel()
		}
		s.mu.Unlock()
		<-done
	}

	snap := s.metrics.Snapshot(time.Now())
	if s.opts.MetricsSink != nil {
		enc := json.NewEncoder(s.opts.MetricsSink)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return snap, fmt.Errorf("serve: flushing metrics on drain: %w", err)
		}
	}
	return snap, nil
}

// handleHealthz reports process liveness: 200 for as long as the process
// can answer at all, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness for NEW work: 503 once draining, so load
// balancers stop routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ready",
		"cheap_queued": s.cheap.queued(),
		"heavy_queued": s.heavy.queued(),
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(time.Now())
	// Prometheus scrape: explicit ?format=prom, or an Accept header that
	// asks for the text exposition format. JSON stays the default for
	// humans and the existing tooling.
	if r.URL.Query().Get("format") == "prom" ||
		strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		strings.Contains(r.Header.Get("Accept"), "text/plain; version=0.0.4") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := snap.WriteProm(w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// runLane is the common fill path for cached endpoints: admit into the
// lane, re-check the deadline, compute, render. Every refusal renders as a
// typed error response.
func (s *Server) runLane(ctx context.Context, l *lane, compute func() (any, *apiError)) cachedResponse {
	release, err := l.admit(ctx)
	if err != nil {
		if oe, ok := err.(*OverloadError); ok {
			return renderError(&apiError{
				Status: http.StatusTooManyRequests, Code: "overloaded",
				Detail: oe.Detail, Lane: oe.Lane, Reason: oe.Reason,
				RetryAfterS: oe.RetryAfterS,
			})
		}
		return renderError(deadlineError(err))
	}
	defer release()
	start := time.Now()
	defer func() { l.observeService(time.Since(start).Seconds()) }()
	if l == s.heavy && s.testHeavyHold != nil {
		s.testHeavyHold(ctx)
	}
	if err := ctx.Err(); err != nil {
		return renderError(deadlineError(err))
	}
	v, aerr := compute()
	if aerr != nil {
		return renderError(aerr)
	}
	return renderJSON(http.StatusOK, v)
}

func deadlineError(err error) *apiError {
	return &apiError{
		Status: http.StatusGatewayTimeout,
		Code:   "deadline",
		Detail: fmt.Sprintf("request abandoned before completion: %v", err),
	}
}

// renderJSON materializes a response body for the cache.
func renderJSON(status int, v any) cachedResponse {
	b, err := json.Marshal(v)
	if err != nil {
		return renderError(&apiError{Status: http.StatusInternalServerError, Code: "internal", Detail: "response encoding failed"})
	}
	return cachedResponse{
		status:      status,
		contentType: "application/json",
		body:        append(b, '\n'),
		cacheable:   status == http.StatusOK,
	}
}

func renderError(e *apiError) cachedResponse {
	b, _ := json.Marshal(e)
	resp := cachedResponse{status: e.Status, contentType: "application/json", body: append(b, '\n')}
	if e.RetryAfterS > 0 {
		resp.retryAfterS = e.RetryAfterS
	}
	return resp
}

// replay writes a rendered response, marking how the cache resolved it.
func replay(w http.ResponseWriter, resp cachedResponse, state cacheState) {
	w.Header().Set("Content-Type", resp.contentType)
	switch state {
	case cacheHit:
		w.Header().Set("X-Cache", "hit")
	case cacheCoalesced:
		w.Header().Set("X-Cache", "coalesced")
	default:
		w.Header().Set("X-Cache", "miss")
	}
	if resp.retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfterS))
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body) // a failed write means the client left
}

// cachedQuery funnels an endpoint through the cache + singleflight + lane
// pipeline and writes the outcome.
func (s *Server) cachedQuery(ctx context.Context, w *statusWriter, l *lane, key string, compute func() (any, *apiError)) {
	resp, state, err := s.cache.do(ctx, key, func() cachedResponse {
		return s.runLane(ctx, l, compute)
	})
	s.metrics.recordCache(state)
	if err != nil {
		writeAPIError(w, deadlineError(err))
		return
	}
	replay(w, resp, state)
}
