package main

// manifest.go is the benchmark's contract in Go: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the root of the repository is this table
// printed by `-manifest`; a unit test holds the two together.

// workloadSpec names a workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures.
const runSeconds = 20

var workloads = []workloadSpec{
	{"sim_scale", "2.5D Cannon matmul, p=32,768 event-runtime ranks, 4x4 blocks: engine scheduling, wiring, rings, conducted collectives and per-rank memory do nearly all the work; op = one simulated rank"},
	{"sim_mix", "ten algorithms per round (SUMMA, 3D, rectangular SUMMA, FFT tree/naive, n-body, LU, CAPS, one GEMM-bound matmul): the same simulator used ten other ways; op = one simulated message"},
	{"serve_cheap", "2 closed-loop clients on /price and /optimize over loopback, half hot-set hits, half never-repeated misses: HTTP, decode, admission, cache, encode; never enters the simulator; op = one request"},
	{"serve_heavy", "closed-loop /simulate of p=128 runs that bypass the cache, beside a 100 req/s open-loop /price probe: heavy lane and the simulator's fixed cost per small run; op = one /simulate request"},
}

// endToEnd lists what a user of the system sees. Every workload reports
// every metric; "op" is the unit of work its workloadSpec names. The bounds
// are as wide as they are because the reference box is shared: quartile
// spreads of 2–6 % on a quiet quarter of an hour and of 10–30 % on a busy
// one (README.md), and a bound must be three times the spread.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of single layers, named module.metric. The
// first block is measured by the probe suite, identically in every traced
// run. The second is measured on the traced pass of whichever workload
// runs. The third belongs to layers only some workloads enter and reads 0
// on the others; it holds counts and ratios, never times.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{Name: "sim.spawn_us_per_rank", Unit: "us", Better: "lower"},
		{Name: "sim.spawn_small_us", Unit: "us", Better: "lower"},
		{Name: "sim.p2p_msgs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.coll_conducted_ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.coll_generic_ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.generic_over_conducted", Unit: "ratio", Better: "lower"},
		{Name: "matrix.gemm_gflops", Unit: "Gflop/s", Better: "higher"},
		{Name: "matrix.random_ms", Unit: "ms", Better: "lower"},
		{Name: "core.price_sim_ms", Unit: "ms", Better: "lower"},
		{Name: "core.eval_ns", Unit: "ns", Better: "lower"},
		{Name: "opt.solve_us", Unit: "us", Better: "lower"},
		{Name: "obs.ring_overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "obs.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "http.floor_us", Unit: "us", Better: "lower"},
		{Name: "serve.handler_price_hit_us", Unit: "us", Better: "lower"},
		{Name: "serve.handler_price_miss_us", Unit: "us", Better: "lower"},
		{Name: "serve.handler_optimize_miss_us", Unit: "us", Better: "lower"},
		{Name: "serve.sim_wall_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.heavy_overhead_ms", Unit: "ms", Better: "lower"},

		{Name: "host.cpu_cores", Unit: "ratio", Better: "lower"},
		{Name: "host.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		{Name: "host.mutex_wait_frac", Unit: "ratio", Better: "lower"},
		{Name: "host.sched_lat_p99_us", Unit: "us", Better: "lower"},
		{Name: "host.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
		{Name: "host.mallocs_per_op", Unit: "count", Better: "lower"},
		{Name: "work.cold_over_warm", Unit: "ratio", Better: "lower"},
		{Name: "work.lat_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "work.samples", Unit: "count", Better: "higher"},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "trace.self_over_wall", Unit: "ratio", Better: "lower"},

		{Name: "sim.msgs_per_round", Unit: "count", Better: "lower"},
		{Name: "sim.words_per_round", Unit: "count", Better: "lower"},
		{Name: "sim.active_pairs", Unit: "count", Better: "lower"},
		{Name: "core.price_share", Unit: "ratio", Better: "lower"},
	}
	for _, m := range mixMembers {
		specs = append(specs, metricSpec{Name: "alg." + m.name + ".share", Unit: "ratio", Better: "lower"})
	}
	return append(specs,
		metricSpec{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "serve.shed_total", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.timed_out_total", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.probe_slowdown", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "serve.probe_late_frac", Unit: "ratio", Better: "lower"},
	)
}()

// manifest is the content of BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bound, so the key is left out
	}
}
