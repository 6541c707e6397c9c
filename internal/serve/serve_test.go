package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: body is not JSON: %v\n%s", url, err, body)
	}
	return resp.StatusCode, m, resp.Header
}

func TestHealthAndReady(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code, body, _ := get(t, ts.URL+"/healthz"); code != 200 || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, body)
	}
	if code, body, _ := get(t, ts.URL+"/readyz"); code != 200 || body["status"] != "ready" {
		t.Errorf("readyz = %d %v", code, body)
	}
}

func TestPriceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	url := ts.URL + "/price?alg=matmul&n=4096&p=64"
	code, body, hdr := get(t, url)
	if code != 200 {
		t.Fatalf("price = %d %v", code, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	if v, _ := body["total_time_s"].(float64); !(v > 0) {
		t.Errorf("total_time_s = %v, want > 0", body["total_time_s"])
	}
	if v, _ := body["total_energy_j"].(float64); !(v > 0) {
		t.Errorf("total_energy_j = %v, want > 0", body["total_energy_j"])
	}
	// The identical query must replay from the cache.
	code, body2, hdr := get(t, url)
	if code != 200 || hdr.Get("X-Cache") != "hit" {
		t.Errorf("second request = %d, X-Cache = %q, want 200 hit", code, hdr.Get("X-Cache"))
	}
	if body2["total_energy_j"] != body["total_energy_j"] {
		t.Errorf("cached response differs: %v vs %v", body2["total_energy_j"], body["total_energy_j"])
	}
}

func TestPriceAllAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"alg=matmul&n=4096&p=64",
		"alg=strassen&n=4096&p=64",
		"alg=lu&n=4096&p=64",
		"alg=nbody&n=1000000&p=100",
		"alg=fft&n=1048576&p=64",
		"alg=fft&n=1048576&p=64&tree=1",
	} {
		code, body, _ := get(t, ts.URL+"/price?"+q)
		if code != 200 {
			t.Errorf("price?%s = %d %v", q, code, body)
			continue
		}
		if v, _ := body["total_energy_j"].(float64); !(v > 0) {
			t.Errorf("price?%s total_energy_j = %v", q, body["total_energy_j"])
		}
	}
}

func TestPriceBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ q, wantCode string }{
		{"n=4096&p=64", "bad_request"},                      // missing alg
		{"alg=matmul&p=64", "bad_request"},                  // missing n
		{"alg=matmul&n=4096", "bad_request"},                // missing p
		{"alg=matmul&n=4096&p=64&mem=1", "bad_request"},     // mem below n²/p
		{"alg=warp&n=4096&p=64", "bad_request"},             // unknown alg
		{"alg=matmul&n=abc&p=64", "bad_request"},            // non-numeric
		{"alg=matmul&n=4096&p=64&machine=x", "bad_request"}, // unknown preset
	} {
		code, body, _ := get(t, ts.URL+"/price?"+tc.q)
		if code != 400 || body["error"] != tc.wantCode {
			t.Errorf("price?%s = %d %v, want 400 %s", tc.q, code, body, tc.wantCode)
		}
	}
}

func TestOptimizeObjectives(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"alg=nbody&n=1e6&objective=min_energy",
		"alg=nbody&n=1e6&objective=min_energy_given_time&budget=10",
		"alg=nbody&n=1e6&objective=min_time_given_energy&budget=1e6",
		"alg=nbody&n=1e6&objective=min_energy_given_power&budget=5",
		"alg=matmul&n=4096&objective=min_energy",
		"alg=matmul&n=4096&objective=min_energy_given_time&budget=100",
		"alg=strassen&n=4096&objective=min_energy_given_time&budget=100",
	} {
		code, body, _ := get(t, ts.URL+"/optimize?"+q)
		if code != 200 {
			t.Errorf("optimize?%s = %d %v", q, code, body)
			continue
		}
		if v, _ := body["mem_words"].(float64); !(v > 0) {
			t.Errorf("optimize?%s mem_words = %v", q, body["mem_words"])
		}
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// A nanosecond time budget for an n=65536 multiply cannot be met.
	code, body, _ := get(t, ts.URL+"/optimize?alg=matmul&n=65536&objective=min_energy_given_time&budget=1e-9")
	if code != 422 || body["error"] != "infeasible" {
		t.Errorf("infeasible optimize = %d %v, want 422 infeasible", code, body)
	}
}

func TestSimulateSummary(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body, _ := get(t, ts.URL+"/simulate?alg=matmul25d&n=64&q=4&c=1")
	if code != 200 {
		t.Fatalf("simulate = %d %v", code, body)
	}
	if body["kind"] != "summary" || body["p"] != float64(16) {
		t.Errorf("summary = %v", body)
	}
	if v, _ := body["sim_time_s"].(float64); !(v > 0) {
		t.Errorf("sim_time_s = %v", body["sim_time_s"])
	}
	// Determinism: the same tuple must price identically (via cache or not).
	_, body2, _ := get(t, ts.URL+"/simulate?alg=matmul25d&n=64&q=4&c=1")
	if body2["total_energy_j"] != body["total_energy_j"] {
		t.Errorf("simulate not deterministic: %v vs %v", body2["total_energy_j"], body["total_energy_j"])
	}
}

// TestSimulateRuntimeParam pins what is left of the retired runtime=
// parameter: like any unknown query parameter it is ignored, so a client
// that still sends it gets the same answer from the same cache entry, and
// the response no longer names a runtime.
func TestSimulateRuntimeParam(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, plain, _ := get(t, ts.URL+"/simulate?alg=matmul25d&n=64&q=4&c=1")
	if code != 200 {
		t.Fatalf("default simulate = %d %v", code, plain)
	}
	if rt, ok := plain["runtime"]; ok {
		t.Errorf("response still carries runtime = %v", rt)
	}
	for _, rt := range []string{"goroutine", "event", "fibers"} {
		code, old, hdr := get(t, ts.URL+"/simulate?alg=matmul25d&n=64&q=4&c=1&runtime="+rt)
		if code != 200 {
			t.Fatalf("runtime=%s simulate = %d %v", rt, code, old)
		}
		if hdr.Get("X-Cache") != "hit" {
			t.Errorf("runtime=%s X-Cache = %q, want hit on the plain request's entry", rt, hdr.Get("X-Cache"))
		}
		for _, field := range []string{"sim_time_s", "total_energy_j", "active_pairs", "max_stats"} {
			if !reflect.DeepEqual(plain[field], old[field]) {
				t.Errorf("%s differs with runtime=%s: %v vs %v", field, rt, plain[field], old[field])
			}
		}
	}
}

// TestSimulatePayloadFree pins that /simulate's payload-free runs answer
// what the numeric runs they replace measured: for both algorithms and two
// seeds, the counters, clocks and active pairs equal a numeric run on the
// seed's matrices. The seed is still echoed and still keys the cache.
func TestSimulatePayloadFree(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const n, q, c = 64, 4, 2
	m := machine.SimDefault()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
	for alg, run := range map[string]func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*matmul.RunResult, error){
		"matmul25d": matmul.TwoPointFiveD, "summa25d": matmul.TwoPointFiveDSUMMA,
	} {
		for _, seed := range []int{1, 9} {
			url := fmt.Sprintf("%s/simulate?alg=%s&n=%d&q=%d&c=%d&seed=%d", ts.URL, alg, n, q, c, seed)
			code, body, hdr := get(t, url)
			if code != 200 || hdr.Get("X-Cache") != "miss" {
				t.Fatalf("%s seed=%d: %d X-Cache=%q %v, want 200 miss", alg, seed, code, hdr.Get("X-Cache"), body)
			}
			numeric, err := run(cost, q, c, matrix.Random(n, n, int64(seed)), matrix.Random(n, n, int64(seed)+1))
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]any
			buf, _ := json.Marshal(numeric.Sim.MaxStats())
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(body["max_stats"], want) {
				t.Errorf("%s seed=%d: max_stats %v, numeric run %v", alg, seed, body["max_stats"], want)
			}
			if body["sim_time_s"] != numeric.Sim.Time() || body["active_pairs"] != float64(numeric.Sim.ActivePairs) {
				t.Errorf("%s seed=%d: sim_time_s %v active_pairs %v, numeric run %v %d", alg, seed,
					body["sim_time_s"], body["active_pairs"], numeric.Sim.Time(), numeric.Sim.ActivePairs)
			}
			if body["seed"] != float64(seed) {
				t.Errorf("%s seed=%d: response echoes seed %v", alg, seed, body["seed"])
			}
		}
	}
	// The phantom region bounds n: a larger configured limit is clamped, so
	// such a request is shed at the door instead of failing the run.
	if got := (Options{MaxSimN: 8192}).withDefaults().MaxSimN; got != 4096 {
		t.Errorf("MaxSimN 8192 became %d, want the 4096 ceiling", got)
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, q := range []string{
		"n=65&q=4",           // q does not divide n
		"n=64&q=4&c=3",       // c does not divide q
		"n=64&q=0",           // non-positive grid
		"alg=bogus&n=64&q=4", // unknown algorithm
	} {
		code, body, _ := get(t, ts.URL+"/simulate?"+q)
		if code != 400 || body["error"] != "bad_request" {
			t.Errorf("simulate?%s = %d %v, want 400 bad_request", q, code, body)
		}
	}
}

func TestSimulateOversizedShed(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSimRanks: 64, MaxSimN: 256})
	code, body, _ := get(t, ts.URL+"/simulate?n=128&q=16&c=1") // p = 256 > 64
	if code != 429 || body["error"] != "overloaded" || body["reason"] != "oversized" {
		t.Errorf("oversized simulate = %d %v, want 429 overloaded/oversized", code, body)
	}
	code, body, _ = get(t, ts.URL+"/simulate?n=512&q=8&c=1") // n > 256
	if code != 429 || body["reason"] != "oversized" {
		t.Errorf("oversized-n simulate = %d %v, want 429 oversized", code, body)
	}
}

func TestSimulateStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/simulate?n=32&q=2&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines int
	var last map[string]any
	for sc.Scan() {
		lines++
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if lines < 10 {
		t.Errorf("stream produced %d lines, want event traffic", lines)
	}
	if last["kind"] != "summary" {
		t.Errorf("final line kind = %v, want summary", last["kind"])
	}
}

func TestDeadlineExpiresHeavyRequest(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// Wedge the heavy lane body until the request deadline fires.
	s.testHeavyHold = func(ctx context.Context) { <-ctx.Done() }
	code, body, _ := get(t, ts.URL+"/simulate?n=32&q=2&deadline_ms=80")
	if code != 504 || body["error"] != "deadline" {
		t.Errorf("deadline simulate = %d %v, want 504 deadline", code, body)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New(Options{})
	h := s.managed("cheap", time.Second, func(ctx context.Context, w *statusWriter, req *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != 500 {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response not JSON: %v", err)
	}
	if body["error"] != "internal" || !strings.Contains(body["detail"].(string), "boom") {
		t.Errorf("panic response = %v", body)
	}
	if snap := s.metrics.Snapshot(time.Now()); snap.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", snap.Panics)
	}
}

func TestGracefulDrain(t *testing.T) {
	var sink bytes.Buffer
	s, ts := newTestServer(t, Options{MetricsSink: &sink, HeavyWorkers: 1})
	held := make(chan struct{})
	s.testHeavyHold = func(ctx context.Context) {
		close(held)
		<-ctx.Done()
	}
	type result struct {
		code int
		body map[string]any
	}
	heavyDone := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/simulate?n=32&q=2")
		if err != nil {
			heavyDone <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		heavyDone <- result{code: resp.StatusCode, body: m}
	}()
	<-held

	// Drain with a short grace period: the wedged request must be
	// force-cancelled, new work refused, and the metrics flushed.
	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	snap, err := s.Drain(drainCtx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	r := <-heavyDone
	if r.code != 504 {
		t.Errorf("wedged request after forced drain = %d %v, want 504", r.code, r.body)
	}
	if code, body, _ := get(t, ts.URL+"/price?alg=matmul&n=4096&p=64"); code != 503 || body["error"] != "draining" {
		t.Errorf("price while draining = %d %v, want 503 draining", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != 503 {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
	if s.inFlight() != 0 {
		t.Errorf("in-flight after drain = %d, want 0", s.inFlight())
	}
	if !strings.Contains(sink.String(), "lanes") {
		t.Errorf("metrics sink not flushed on drain: %q", sink.String())
	}
	// The forced cancel lands on the derived request context, so the
	// request counts as cancelled — its latency says nothing about the
	// server — not as a server-side timeout.
	if snap.Lanes["heavy"].Cancelled != 1 {
		t.Errorf("heavy cancelled = %d, want 1 (the force-cancelled request)", snap.Lanes["heavy"].Cancelled)
	}
}

// TestDeadlineExpiryCountsCancelled pins the accounting for ?deadline_ms:
// the timeout lives on the context derived inside the middleware, not on
// req.Context(), so the middleware must consult the derived context or it
// undercounts every deadline expiry.
func TestDeadlineExpiryCountsCancelled(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.testHeavyHold = func(ctx context.Context) { <-ctx.Done() }
	code, _, _ := get(t, ts.URL+"/simulate?n=32&q=2&deadline_ms=50")
	if code != 504 {
		t.Fatalf("expired simulate = %d, want 504", code)
	}
	snap := s.metrics.Snapshot(time.Now())
	if snap.Lanes["heavy"].Cancelled != 1 {
		t.Errorf("heavy cancelled = %d, want 1 (deadline_ms expiry)", snap.Lanes["heavy"].Cancelled)
	}
	if snap.Lanes["heavy"].TimedOut != 0 {
		t.Errorf("heavy timed_out = %d, want 0", snap.Lanes["heavy"].TimedOut)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	get(t, ts.URL+"/price?alg=matmul&n=4096&p=64")
	get(t, ts.URL+"/price?alg=matmul&n=4096&p=64")
	code, body, _ := get(t, ts.URL+"/metricsz")
	if code != 200 {
		t.Fatalf("metricsz = %d", code)
	}
	lanes, _ := body["lanes"].(map[string]any)
	cheap, _ := lanes["cheap"].(map[string]any)
	if served, _ := cheap["served"].(float64); served != 2 {
		t.Errorf("cheap served = %v, want 2", cheap["served"])
	}
	if hits, _ := body["cache_hits"].(float64); hits != 1 {
		t.Errorf("cache_hits = %v, want 1", body["cache_hits"])
	}
}

func TestDeadlineMsValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body, _ := get(t, ts.URL+"/price?alg=matmul&n=4096&p=64&deadline_ms=potato")
	if code != 400 || body["error"] != "bad_request" {
		t.Errorf("bad deadline_ms = %d %v, want 400", code, body)
	}
}

func ExampleServer() {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/price?alg=nbody&n=1000000&p=100")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	fmt.Println(resp.StatusCode, m["alg"])
	// Output: 200 nbody
}

// stackProbe is an observer that captures every goroutine's stack at the
// run's first phase mark, mid-run.
type stackProbe struct {
	once   sync.Once
	stacks string
}

func (p *stackProbe) OnPhase(int, string, float64) {
	p.once.Do(func() {
		buf := make([]byte, 1<<20)
		p.stacks = string(buf[:runtime.Stack(buf, true)])
	})
}
func (p *stackProbe) OnCompute(int, sim.Segment)   {}
func (p *stackProbe) OnSend(int, sim.Segment)      {}
func (p *stackProbe) OnRecv(int, sim.Segment)      {}
func (p *stackProbe) OnFault(sim.FaultEvent)       {}
func (p *stackProbe) OnTimer(sim.TimerEvent)       {}
func (p *stackProbe) OnCrash(sim.CrashEvent)       {}
func (p *stackProbe) OnDeadlock(sim.DeadlockEvent) {}

// TestSimulateRunsStackless: /simulate's runs — a cancel context, and for
// stream=1 an observer — host both 2.5D matmuls on the stackless engine:
// mid-run, no rank has a coroutine.
func TestSimulateRunsStackless(t *testing.T) {
	for _, alg := range []string{"matmul25d", "summa25d"} {
		probe := &stackProbe{}
		sq := simulateQuery{m: machine.SimDefault(), alg: alg, n: 64, q: 4, c: 2, seed: 1, stream: true}
		if _, aerr := runSimulate(context.Background(), sq, []sim.Observer{probe}); aerr != nil {
			t.Fatalf("%s: %v", alg, aerr)
		}
		if probe.stacks == "" || strings.Contains(probe.stacks, "(*coRank).Step") {
			t.Errorf("%s: rank coroutines during a /simulate run:\n%.3000s", alg, probe.stacks)
		}
	}
}

// inFlight reports the number of tracked requests.
func (s *Server) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}
