package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSaturationCheapLaneIsolated is the saturation/chaos test of the
// acceptance criteria: with the heavy lane wedged at capacity and a burst
// of heavy traffic being shed, the cheap lane's client-observed p99 must
// stay inside its pinned band and every shed request must carry the typed
// 429 + Retry-After.
func TestSaturationCheapLaneIsolated(t *testing.T) {
	s, ts := newTestServer(t, Options{
		HeavyWorkers: 1,
		HeavyQueue:   -1, // no queue: everything beyond the one worker sheds
		CheapWorkers: 8,
		CheapQueue:   1024,
	})
	held := make(chan struct{})
	releaseHold := make(chan struct{})
	var once sync.Once
	s.testHeavyHold = func(ctx context.Context) {
		once.Do(func() { close(held) })
		select {
		case <-releaseHold:
		case <-ctx.Done():
		}
	}

	// Wedge the single heavy worker.
	wedgedDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/simulate?n=32&q=2")
		if err != nil {
			wedgedDone <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		wedgedDone <- resp.StatusCode
	}()
	<-held

	// Past-capacity heavy burst: every request must shed as a typed 429
	// with Retry-After, never queue behind the wedged worker. Distinct
	// tuples so the cache cannot answer them.
	const heavyBurst = 20
	for i := 0; i < heavyBurst; i++ {
		url := fmt.Sprintf("%s/simulate?n=%d&q=2&seed=%d", ts.URL, 32, i+100)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("heavy burst %d: %v", i, err)
		}
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != 429 {
			t.Fatalf("heavy burst %d = %d %v, want 429", i, resp.StatusCode, body)
		}
		if body["error"] != "overloaded" || body["lane"] != "heavy" {
			t.Errorf("heavy burst %d body = %v, want typed overloaded/heavy", i, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("heavy burst %d missing Retry-After header", i)
		}
	}

	// Meanwhile the cheap lane must stay fast. Distinct queries (cache
	// misses) from concurrent clients, latencies measured client-side.
	const (
		cheapClients  = 8
		cheapPerWorka = 40
	)
	latCh := make(chan time.Duration, cheapClients*cheapPerWorka)
	var wg sync.WaitGroup
	for w := 0; w < cheapClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cheapPerWorka; i++ {
				n := 1024 * (1 + (w*cheapPerWorka+i)%64)
				url := fmt.Sprintf("%s/price?alg=matmul&n=%d&p=64", ts.URL, n)
				start := time.Now()
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("cheap query: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("cheap query under saturation = %d, want 200", resp.StatusCode)
					return
				}
				latCh <- time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	close(latCh)
	var lats []time.Duration
	for d := range latCh {
		lats = append(lats, d)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[int(float64(len(lats))*0.99)-1]
	t.Logf("cheap lane under heavy saturation: n=%d p50=%v p99=%v max=%v", len(lats), p50, p99, lats[len(lats)-1])
	// The pinned band: closed-form pricing is microseconds of arithmetic;
	// even with CI noise a p99 anywhere near the second mark would mean
	// the heavy lane leaked into the cheap one.
	const p99Band = 500 * time.Millisecond
	if p99 > p99Band {
		t.Errorf("cheap p99 = %v exceeds the pinned band %v while heavy lane saturated", p99, p99Band)
	}

	// Release the wedge: the in-flight heavy request must now complete.
	close(releaseHold)
	if code := <-wedgedDone; code != 200 {
		t.Errorf("wedged heavy request after release = %d, want 200", code)
	}

	snap := s.Metrics().Snapshot(time.Now())
	if snap.Lanes["heavy"].Shed != heavyBurst {
		t.Errorf("heavy shed = %d, want %d", snap.Lanes["heavy"].Shed, heavyBurst)
	}
	if got := snap.Lanes["cheap"].Served; got != cheapClients*cheapPerWorka {
		t.Errorf("cheap served = %d, want %d", got, cheapClients*cheapPerWorka)
	}
	if snap.Lanes["cheap"].Shed != 0 {
		t.Errorf("cheap shed = %d, want 0 (heavy saturation must not shed cheap work)", snap.Lanes["cheap"].Shed)
	}
}

// TestCancelledSimulateStopsSimulation is the cancellation criterion: a
// client that abandons a streaming /simulate must stop the underlying
// simulation's rank goroutines, verified by the process goroutine count
// returning to its baseline.
func TestCancelledSimulateStopsSimulation(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxSimRanks: 16384})
	baseline := runtime.NumGoroutine()

	// A long run: /simulate is payload-free, so length comes from ranks
	// and steps, not arithmetic — p = 16384 SUMMA ranks run for seconds
	// even once the hung-up client's writes fail fast.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/simulate?alg=summa25d&n=4096&q=64&c=4&stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for proof the simulation is live: the first streamed event,
	// and a goroutine executing the simulator (its ranks are stackless,
	// so that is an engine worker, not one goroutine per rank).
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("no event line before cancel: %v", err)
	}
	if simGoroutines() == 0 {
		t.Fatal("no goroutine is executing the simulation")
	}

	// Hang up mid-run.
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()

	// The simulation must stop promptly — within 2 s, where the run would
	// take longer on its own. This is what fails if Cost.Context is not
	// threaded into the rank runtime.
	stopBy := time.Now().Add(2 * time.Second)
	for simGoroutines() > 0 {
		if time.Now().After(stopBy) {
			t.Fatalf("the simulation still runs 2 s after the client hung up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finished HTTP conns along
		n := runtime.NumGoroutine()
		if n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after client hang-up: %d now vs baseline %d", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, func() bool { return s.inFlight() == 0 })

	// The abandoned request is accounted as cancelled, not served.
	snap := s.Metrics().Snapshot(time.Now())
	if snap.Lanes["heavy"].Cancelled != 1 {
		t.Errorf("heavy cancelled = %d, want 1", snap.Lanes["heavy"].Cancelled)
	}
}

// simGoroutines counts the goroutines executing the simulator: engine
// workers and closure ranks' coroutines.
func simGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "perfscale/internal/sim.") {
			n++
		}
	}
	return n
}

// TestMixedChaosTraffic drives a randomized mixture of valid, invalid,
// oversized and concurrent duplicate traffic through every endpoint at
// once: nothing may panic, hang or corrupt the accounting.
func TestMixedChaosTraffic(t *testing.T) {
	s, ts := newTestServer(t, Options{HeavyWorkers: 2, HeavyQueue: 2, MaxSimRanks: 64})
	urls := []string{
		"/price?alg=matmul&n=4096&p=64",
		"/price?alg=nbody&n=1e6&p=100",
		"/price?alg=bogus",
		"/price?alg=matmul&n=-5&p=64",
		"/optimize?alg=nbody&n=1e6&objective=min_energy",
		"/optimize?alg=matmul&n=4096&objective=min_energy_given_time&budget=1e-12",
		"/simulate?n=32&q=2",
		"/simulate?n=32&q=2&stream=1",
		"/simulate?n=128&q=16", // oversized: p = 256 > 64
		"/simulate?n=33&q=2",   // invalid shape
		"/healthz",
		"/readyz",
		"/metricsz",
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				u := urls[(w*25+i)%len(urls)]
				resp, err := http.Get(ts.URL + u)
				if err != nil {
					t.Errorf("chaos GET %s: %v", u, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("chaos GET %s = %d", u, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	if snap := s.Metrics().Snapshot(time.Now()); snap.Panics != 0 {
		t.Errorf("panics under chaos = %d", snap.Panics)
	}
	if s.inFlight() != 0 {
		t.Errorf("in-flight after chaos = %d, want 0", s.inFlight())
	}
}
