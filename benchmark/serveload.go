package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"
)

// Requests --------------------------------------------------------------------

type requestKind uint8

const (
	kindPrice requestKind = iota
	kindOptimize
	kindSimulate
	kindHealth
)

// request is one generated query and what the benchmark expects of its
// answer.
type request struct {
	kind  requestKind
	path  string
	query string
	// hot requests repeat a prefilled key and must be answered from the
	// cache; the others are never repeated and must miss.
	hot bool
	// sample marks the 1-in-64 cheap requests whose body is compared with
	// the direct evaluation. Every /simulate body is compared with golden.json.
	sample   bool
	price    priceQuery
	optimize optimizeQuery
	shape    string // /simulate alg
}

// ftoa prints v exactly and without an exponent, whose '+' a query string
// would turn into a space.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

var priceAlgs = []string{"matmul", "strassen", "lu", "nbody", "fft"}
var optimizeAlgs = []string{"matmul", "strassen", "nbody"}

const (
	priceP       = 4096
	hotPriceKeys = 128
	hotOptKeys   = 32
	sampleEvery  = 64
)

// priceRequest builds a /price query of alg at size n with replication
// factor 2, which is inside every algorithm's legal memory range at p=4096.
func priceRequest(alg string, n float64, tree bool) request {
	q := priceQuery{Alg: alg, N: n, P: priceP, Tree: tree}
	query := "alg=" + alg + "&n=" + ftoa(n) + "&p=" + ftoa(q.P)
	switch alg {
	case "fft":
		if tree {
			query += "&tree=1"
		}
	case "nbody":
		q.Mem = 2 * n / q.P
	default:
		q.Mem = 2 * n * n / q.P
	}
	if q.Mem != 0 {
		query += "&mem=" + ftoa(q.Mem)
	}
	return request{kind: kindPrice, path: "/price", query: query, price: q}
}

// optimizeRequest builds an /optimize query; budgeted objectives get a
// budget the optimizer can meet.
func optimizeRequest(alg string, n float64, budgeted bool, slack float64) request {
	q := optimizeQuery{Alg: alg, Objective: "min_energy", N: n}
	query := "alg=" + alg + "&n=" + ftoa(n)
	if budgeted {
		q.Objective = "min_energy_given_time"
		q.Budget = timeBudget(alg, n, slack)
		query += "&budget=" + ftoa(q.Budget)
	}
	return request{kind: kindOptimize, path: "/optimize", query: query + "&objective=" + q.Objective, optimize: q}
}

// hotSet is the repeated part of the cheap traffic: far smaller than the
// server's 1024-entry cache, and cycled through so that no key goes
// untouched for long enough to be evicted by the never-repeated traffic.
type hotSet struct {
	price, optimize []request
}

func newHotSet() hotSet {
	var h hotSet
	for i := 0; i < hotPriceKeys; i++ {
		r := priceRequest(priceAlgs[i%len(priceAlgs)], float64(1024*(1+i/len(priceAlgs))), i%2 == 0)
		r.hot = true
		h.price = append(h.price, r)
	}
	for i := 0; i < hotOptKeys; i++ {
		r := optimizeRequest(optimizeAlgs[i%len(optimizeAlgs)], float64(2048*(1+i/len(optimizeAlgs))), i%2 == 0, 2)
		r.hot = true
		h.optimize = append(h.optimize, r)
	}
	return h
}

// cheapStream is one client's request sequence on serve_cheap: 40 % hot
// /price, 30 % never-repeated /price, 20 % never-repeated /optimize, 10 %
// hot /optimize. It is a pure function of (seed, client).
type cheapStream struct {
	rng      *rand.Rand
	hot      hotSet
	pricePos int
	optPos   int
	// unique is the next never-repeated n; the clients draw from disjoint
	// residues so that no n is sent twice.
	unique  int64
	clients int64
	sent    int
}

func newCheapStream(seed int64, client, clients int) *cheapStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	s := &cheapStream{rng: rng, hot: newHotSet(), clients: int64(clients)}
	s.pricePos, s.optPos = rng.Intn(hotPriceKeys), rng.Intn(hotOptKeys)
	s.unique = 1<<20 + int64(rng.Intn(1<<16))*int64(clients) + int64(client)
	return s
}

func (s *cheapStream) nextUnique() float64 {
	n := s.unique
	s.unique += s.clients
	return float64(n)
}

func (s *cheapStream) next() request {
	var r request
	switch roll := s.rng.Intn(100); {
	case roll < 40:
		r = s.hot.price[s.pricePos]
		s.pricePos = (s.pricePos + 1) % len(s.hot.price)
	case roll < 70:
		r = priceRequest(priceAlgs[s.rng.Intn(len(priceAlgs))], s.nextUnique(), s.rng.Intn(2) == 0)
	case roll < 90:
		r = optimizeRequest(optimizeAlgs[s.rng.Intn(len(optimizeAlgs))], s.nextUnique(), s.rng.Intn(2) == 0, 1.5+s.rng.Float64())
	default:
		r = s.hot.optimize[s.optPos]
		s.optPos = (s.optPos + 1) % len(s.hot.optimize)
	}
	r.sample = s.sent%sampleEvery == 0
	s.sent++
	return r
}

// simulateStream is serve_heavy's stream A: /simulate of p=128 runs, the
// two algorithms alternating, each with a seed never sent before, so every
// request bypasses the cache and runs the simulator.
type simulateStream struct {
	seed int64
	sent int
}

func newSimulateStream(seed int64) *simulateStream {
	return &simulateStream{seed: 1 + (seed%1000)*1_000_000}
}

func (s *simulateStream) next() request {
	shape := simulateShapes[s.sent%len(simulateShapes)]
	query := fmt.Sprintf("alg=%s&n=%d&q=%d&c=%d&seed=%d", shape, simulateN, simulateQ, simulateC, s.seed+int64(s.sent))
	s.sent++
	return request{kind: kindSimulate, path: "/simulate", query: query, shape: shape}
}

// probeStream is serve_heavy's stream B: hot /price keys in order.
type probeStream struct {
	hot  []request
	sent int
}

func (s *probeStream) next() request {
	r := s.hot[s.sent%len(s.hot)]
	s.sent++
	return r
}

// Client ----------------------------------------------------------------------

// client sends one request at a time over one keep-alive connection.
type client struct {
	hc   *http.Client
	req  *http.Request
	body bytes.Buffer
}

func newClient(baseURL string) (*client, error) {
	req, err := http.NewRequest(http.MethodGet, baseURL, nil)
	if err != nil {
		return nil, err
	}
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		req: req,
	}, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and returns the status, the X-Cache header and the body, which
// is valid until the next call.
func (c *client) do(r request) (int, string, []byte, error) {
	c.req.URL.Path, c.req.URL.RawQuery = r.path, r.query
	resp, err := c.hc.Do(c.req)
	if err != nil {
		return 0, "", nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), c.body.Bytes(), nil
}

// tally is what one client saw.
type tally struct {
	attempted, failed int
	errs              []string
	latS              []float64 // successful requests only
	hotSent           int
	simWallMs         []float64 // wall_ms of /simulate bodies
	lateS             []float64 // open loop: how long after it was due each request left
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// checkReply verifies one answer: 2xx, the cache state the request was
// built to meet, and — for sampled cheap requests and every /simulate — a
// body equal to what the model says.
func checkReply(r request, status int, xcache string, body []byte, golden map[string]simStats, t *tally) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("%s?%s: status %d: %.120s", r.path, r.query, status, body)
	}
	if r.kind == kindHealth {
		return nil
	}
	want := "miss"
	if r.hot {
		want = "hit"
	}
	if xcache != want {
		return fmt.Errorf("%s?%s: X-Cache %q, the workload is built for %q", r.path, r.query, xcache, want)
	}
	switch {
	case r.kind == kindSimulate:
		var b struct {
			SimTimeS float64 `json:"sim_time_s"`
			Energy   float64 `json:"total_energy_j"`
			WallMs   float64 `json:"wall_ms"`
			Max      struct {
				Flops, WordsSent, MsgsSent, PeakMemWords float64
			} `json:"max_stats"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("%s?%s: %w", r.path, r.query, err)
		}
		t.simWallMs = append(t.simWallMs, b.WallMs)
		// A body carries no totals; the pinned ones stand in for them.
		pinned := golden["simulate_"+r.shape]
		got := simStats{
			Time: b.SimTimeS, Energy: b.Energy,
			MaxF: b.Max.Flops, MaxW: b.Max.WordsSent, MaxS: b.Max.MsgsSent, MaxM: b.Max.PeakMemWords,
			Msgs: pinned.Msgs, Words: pinned.Words,
		}
		return checkGolden(golden, "simulate_"+r.shape, got)
	case r.sample && r.kind == kindPrice:
		var b struct {
			Time   float64 `json:"total_time_s"`
			Energy float64 `json:"total_energy_j"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("%s?%s: %w", r.path, r.query, err)
		}
		wantT, wantE, err := directPrice(r.price)
		if err != nil {
			return err
		}
		if b.Time != wantT || b.Energy != wantE {
			return fmt.Errorf("%s?%s: answered T=%v E=%v, internal/core gives T=%v E=%v", r.path, r.query, b.Time, b.Energy, wantT, wantE)
		}
	case r.sample && r.kind == kindOptimize:
		var b struct {
			Energy float64 `json:"energy_j"`
			Mem    float64 `json:"mem_words"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("%s?%s: %w", r.path, r.query, err)
		}
		wantE, wantM, err := directOptimize(r.optimize)
		if err != nil {
			return fmt.Errorf("%s?%s: %w", r.path, r.query, err)
		}
		if b.Energy != wantE || b.Mem != wantM {
			return fmt.Errorf("%s?%s: answered E=%v M=%v, internal/opt gives E=%v M=%v", r.path, r.query, b.Energy, b.Mem, wantE, wantM)
		}
	}
	return nil
}

// send issues r, times it from `from` and tallies the outcome. Every
// sampleEvery-th request is recorded as a span when rec is recording.
func (c *client) send(r request, from time.Time, golden map[string]simStats, t *tally, rec *recorder, parent int) {
	t.attempted++
	if r.hot {
		t.hotSent++
	}
	sp, rt := 0, 0
	if t.attempted%sampleEvery == 1 {
		if sp = rec.begin(parent, "request"); sp != 0 {
			rt = rec.begin(sp, "client.roundtrip")
		}
	}
	status, xcache, body, err := c.do(r)
	lat := time.Since(from).Seconds()
	rec.end(rt)
	if err == nil {
		err = checkReply(r, status, xcache, body, golden, t)
	}
	rec.end(sp)
	if err != nil {
		t.fail(err)
		return
	}
	t.latS = append(t.latS, lat)
}

// closedLoop sends the stream's requests one after another until the
// deadline: the next request leaves when the previous answer has arrived.
func (c *client) closedLoop(next func() request, deadline time.Time, golden map[string]simStats, t *tally, rec *recorder, parent int) {
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		c.send(next(), now, golden, t, rec, parent)
	}
}

// openLoop sends the stream's requests on a fixed schedule of rate per
// second, whatever the answers do. Each is timed from the instant it was
// due, so a stall is charged to the requests it delays.
func (c *client) openLoop(next func() request, rate float64, deadline time.Time, golden map[string]simStats, t *tally) {
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t.lateS = append(t.lateS, time.Since(due).Seconds())
		c.send(next(), due, golden, t, nil, 0)
	}
}

// The passes -------------------------------------------------------------------

// serveSetup is a started server with its clients.
type serveSetup struct {
	svc     *service
	ts      *httptest.Server
	clients []*client
	// coldS is the median latency of the first requests the server answered.
	coldS float64
}

func (s *serveSetup) close() error {
	for _, c := range s.clients {
		c.close()
	}
	s.ts.Close()
	return s.svc.close()
}

// startService starts a server and n clients and sends every hot request
// once, so that the hot set is in the cache.
func startService(n int, hot []request, golden map[string]simStats, cfg runConfig, parent int, res *passResult) (*serveSetup, error) {
	sp := cfg.rec.begin(parent, "server.start")
	s := &serveSetup{svc: newService()}
	s.ts = httptest.NewServer(s.svc.handler())
	for i := 0; i < n; i++ {
		c, err := newClient(s.ts.URL)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	cfg.rec.end(sp)

	sp = cfg.rec.begin(parent, "prefill")
	var t tally
	for _, r := range hot {
		r.hot = false // the first time it is a miss
		s.clients[0].send(r, time.Now(), golden, &t, nil, 0)
	}
	cfg.rec.end(sp)
	res.merge(&t)
	s.coldS = median(t.latS[:min(len(t.latS), 64)])
	return s, nil
}

func (r *passResult) merge(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	for _, e := range t.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// repeatSetup sets the service up setupRepeats times — start, prefill, then
// the workload's own warm-up — closing all but the last, which it returns
// with the duration of each set-up.
func repeatSetup(cfg runConfig, res *passResult, golden map[string]simStats, clients int, hot []request, warm func(*serveSetup, *tally)) (*serveSetup, []float64, error) {
	var setup *serveSetup
	var setups []float64
	setupSpan := cfg.rec.begin(cfg.root, "setup")
	defer cfg.rec.end(setupSpan)
	for rep := 0; rep < setupRepeats; rep++ {
		if setup != nil {
			if err := setup.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		next, err := startService(clients, hot, golden, cfg, setupSpan, res)
		if err != nil {
			return nil, nil, err
		}
		if setup != nil {
			next.coldS = setup.coldS // keep the first server's
		}
		setup = next
		sp := cfg.rec.begin(setupSpan, "warmup")
		var t tally
		warm(setup, &t)
		cfg.rec.end(sp)
		res.merge(&t)
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setup, setups, nil
}

// timedStretch runs load — which starts the clients and returns when the
// deadline has passed and they have stopped — under a "timed" span, and
// returns its wall time and what the host spent on it.
func timedStretch(cfg runConfig, load func(deadline time.Time, span int)) (span int, wallS float64, host hostDelta) {
	span = cfg.rec.begin(cfg.root, "timed")
	host0, start := readHost(), time.Now()
	load(start.Add(time.Duration(cfg.seconds*float64(time.Second))), span)
	wallS = time.Since(start).Seconds()
	host = readHost().since(host0)
	cfg.rec.end(span)
	return span, wallS, host
}

// serveMetrics fills the metrics both serve workloads report from the
// latencies of the stream the workload is about.
func serveMetrics(res *passResult, cfg runConfig, setups, latS []float64, coldS, wallS float64, host hostDelta, timedSpan int, before, after serviceCounters) {
	ops := float64(len(latS))
	res.endToEnd["setup_s"] = median(setups)
	res.endToEnd["ops_per_s"] = ops / wallS
	res.endToEnd["lat_p50_ms"] = median(latS) * 1e3
	res.endToEnd["cpu_us_per_op"] = host.cpuS * 1e6 / ops

	hostLayers(res.layer, host, wallS, ops)
	traceLayers(res.layer, cfg.rec, timedSpan, ops/wallS)
	res.layer["work.cold_over_warm"] = coldS / median(latS)
	res.layer["work.lat_p99_ms"] = percentile(latS, 0.99) * 1e3
	res.layer["work.samples"] = ops
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	res.layer["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	res.layer["serve.shed_total"] = float64(after.Shed)
	res.layer["serve.timed_out_total"] = float64(after.TimedOut)
}

// runServeCheap is the pass of serve_cheap: two closed-loop clients, because
// the callers of /price and /optimize are sweep scripts and optimizers that
// wait for each answer before they ask again.
func runServeCheap(cfg runConfig) (passResult, error) {
	const clients = 2
	const warmup = 4000 // requests per set-up, by one client
	res := passResult{endToEnd: map[string]float64{}, layer: map[string]float64{}}
	golden, err := loadGolden()
	if err != nil {
		return res, err
	}
	hot := newHotSet()

	var streams []*cheapStream
	setup, setups, err := repeatSetup(cfg, &res, golden, clients, append(hot.price, hot.optimize...), func(s *serveSetup, t *tally) {
		streams = streams[:0]
		for i := 0; i < clients; i++ {
			streams = append(streams, newCheapStream(cfg.seed, i, clients))
		}
		for i := 0; i < warmup; i++ {
			s.clients[0].send(streams[0].next(), time.Now(), golden, t, nil, 0)
		}
	})
	if err != nil {
		return res, err
	}
	defer setup.close()

	// Each client's latencies go into memory that is resident before the
	// clock starts, so that peak_rss_mb does not follow the request count.
	tallies := make([]tally, clients)
	for i := range tallies {
		lat := make([]float64, 1<<19)
		for j := range lat {
			lat[j] = 1
		}
		tallies[i].latS = lat[:0]
	}
	before := setup.svc.counters()
	timedSpan, wallS, host := timedStretch(cfg, func(deadline time.Time, span int) {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Only client 0 records request spans: one goroutine's
				// spans follow one another, two goroutines' would overlap.
				rec := cfg.rec
				if i != 0 {
					rec = nil
				}
				setup.clients[i].closedLoop(streams[i].next, deadline, golden, &tallies[i], rec, span)
			}(i)
		}
		wg.Wait()
	})
	after := setup.svc.counters()

	var latS []float64
	sent, hotSent := 0, 0
	for i := range tallies {
		res.merge(&tallies[i])
		latS = append(latS, tallies[i].latS...)
		sent += tallies[i].attempted
		hotSent += tallies[i].hotSent
	}
	if len(latS) == 0 {
		return res, fmt.Errorf("serve_cheap: no request succeeded: %v", res.errs)
	}
	// The mix is the designed one only if the server's own count of hits
	// is the count of hot requests sent, and its misses are the rest.
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	res.attempted++
	if hits != int64(hotSent) || hits+misses != int64(sent) || after.Coalesced != 0 {
		res.fail(fmt.Errorf("server counted %d hits and %d misses (%d coalesced) for %d hot requests of %d", hits, misses, after.Coalesced, hotSent, sent))
	}
	serveMetrics(&res, cfg, setups, latS, setup.coldS, wallS, host, timedSpan, before, after)
	return res, nil
}

// runServeHeavy is the pass of serve_heavy. Stream A is a closed loop: the
// caller of /simulate waits for the run. Stream B is an open loop, because
// it stands for the independent cheap callers whose latency the heavy lane
// must not hurt; its requests leave on schedule whatever stream A does.
func runServeHeavy(cfg runConfig) (passResult, error) {
	const (
		probeRate  = 100  // stream B, requests per second
		baseline   = 256  // unloaded hot /price requests per set-up
		warmup     = 16   // /simulate requests per set-up
		lateAfterS = 1e-3 // a probe that leaves later than this counts as late
	)
	res := passResult{endToEnd: map[string]float64{}, layer: map[string]float64{}}
	golden, err := loadGolden()
	if err != nil {
		return res, err
	}
	hot := newHotSet().price

	var streamA *simulateStream
	var coldS, unloadedS float64
	setup, setups, err := repeatSetup(cfg, &res, golden, 2, hot, func(s *serveSetup, t *tally) {
		probe := probeStream{hot: hot}
		for i := 0; i < baseline; i++ {
			s.clients[1].send(probe.next(), time.Now(), golden, t, nil, 0)
		}
		unloadedS = median(t.latS)
		streamA = newSimulateStream(cfg.seed)
		first := len(t.latS)
		for i := 0; i < warmup; i++ {
			s.clients[0].send(streamA.next(), time.Now(), golden, t, nil, 0)
		}
		if coldS == 0 && len(t.latS) > first {
			coldS = t.latS[first]
		}
	})
	if err != nil {
		return res, err
	}
	defer setup.close()

	var a, b tally
	probe := probeStream{hot: hot}
	before := setup.svc.counters()
	timedSpan, wallS, host := timedStretch(cfg, func(deadline time.Time, span int) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			setup.clients[0].closedLoop(streamA.next, deadline, golden, &a, cfg.rec, span)
		}()
		go func() {
			defer wg.Done()
			setup.clients[1].openLoop(probe.next, probeRate, deadline, golden, &b)
		}()
		wg.Wait()
	})
	after := setup.svc.counters()

	res.merge(&a)
	res.merge(&b)
	if len(a.latS) == 0 || len(b.latS) == 0 {
		return res, fmt.Errorf("serve_heavy: a stream had no success: %v", res.errs)
	}
	// The end-to-end metrics are stream A's.
	serveMetrics(&res, cfg, setups, a.latS, coldS, wallS, host, timedSpan, before, after)
	late := 0
	for _, l := range b.lateS {
		if l > lateAfterS {
			late++
		}
	}
	res.layer["serve.probe_slowdown"] = median(b.latS) / unloadedS
	res.layer["serve.probe_late_frac"] = float64(late) / float64(len(b.lateS))
	return res, nil
}
