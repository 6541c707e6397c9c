package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"
)

// The probe suite measures single layers from outside, by timing calls
// into their public functions. It does a fixed amount of work, the same in
// every traced run whatever the workload, so that its numbers compare
// across runs; every time-valued per-layer metric comes from here or from
// the host counters of the traced pass.

// timeN returns the wall time of reps calls of f, one entry per call.
func timeN(reps int, f func() error) ([]float64, error) {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		walls[i] = time.Since(t0).Seconds()
	}
	return walls, nil
}

// probe is one entry of the suite; it writes its metrics into layer.
type probe struct {
	name string
	run  func(seed int64, layer map[string]float64) error
}

var probeSuite = []probe{
	{"sim.spawn", probeSpawn},
	{"sim.p2p", probeP2P},
	{"sim.collectives", probeCollectives},
	{"matrix", probeMatrix},
	{"core", probeCore},
	{"opt", probeOpt},
	{"obs", probeObs},
	{"serve.handler", probeHandler},
	{"http", probeHTTP},
}

// runProbes runs the suite, one span per probe.
func runProbes(cfg runConfig, layer map[string]float64) error {
	suite := cfg.rec.begin(cfg.root, "probes")
	defer cfg.rec.end(suite)
	for _, p := range probeSuite {
		sp := cfg.rec.begin(suite, "probe."+p.name)
		err := p.run(cfg.seed, layer)
		cfg.rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// probeSpawn times starting and ending ranks that do nothing: the cost of
// a rank's existence, at sim_scale's size and at a /simulate request's.
func probeSpawn(_ int64, layer map[string]float64) error {
	big, err := timeN(3, func() error { return spawnOnly(scaleMember.p) })
	if err != nil {
		return err
	}
	small, err := timeN(64, func() error { return spawnOnly(simulateQ * simulateQ * simulateC) })
	if err != nil {
		return err
	}
	layer["sim.spawn_us_per_rank"] = median(big) * 1e6 / float64(scaleMember.p)
	layer["sim.spawn_small_us"] = median(small) * 1e6
	return nil
}

// probeP2P times point-to-point traffic with no collectives.
func probeP2P(_ int64, layer map[string]float64) error {
	var msgs float64
	walls, err := timeN(3, func() (err error) {
		msgs, err = ringExchange(4096, 64, 8)
		return err
	})
	if err != nil {
		return err
	}
	layer["sim.p2p_msgs_per_s"] = msgs / median(walls)
	return nil
}

// probeCollectives times the same row-communicator collectives on the
// conducted path (what the sim workloads take) and on the generic path
// (what a /simulate request takes, because its deadline sets a context).
func probeCollectives(_ int64, layer map[string]float64) error {
	const q, rounds = 64, 16 // p = 4096
	var ops int
	conducted, err := timeN(3, func() (err error) {
		ops, err = rowCollectives(q, rounds, runMode{})
		return err
	})
	if err != nil {
		return err
	}
	generic, err := timeN(3, func() (err error) {
		ops, err = rowCollectives(q, rounds, runMode{generic: true})
		return err
	})
	if err != nil {
		return err
	}
	layer["sim.coll_conducted_ops_per_s"] = float64(ops) / median(conducted)
	layer["sim.coll_generic_ops_per_s"] = float64(ops) / median(generic)
	layer["sim.generic_over_conducted"] = median(generic) / median(conducted)
	return nil
}

// probeMatrix times the local kernels the ranks run.
func probeMatrix(seed int64, layer map[string]float64) error {
	var flops float64
	walls, _ := timeN(5, func() error { flops = gemm(128, 16, seed); return nil })
	layer["matrix.gemm_gflops"] = flops / median(walls) / 1e9
	walls, _ = timeN(9, func() error { randomMatrix(512, seed); return nil })
	layer["matrix.random_ms"] = median(walls) * 1e3
	return nil
}

// probeCore times pricing a result of sim_scale's size and the closed forms
// behind /price.
func probeCore(_ int64, layer map[string]float64) error {
	walls, _ := timeN(9, func() error { syntheticPricing(scaleMember.p); return nil })
	layer["core.price_sim_ms"] = median(walls) * 1e3
	const evals = 2000
	walls, _ = timeN(5, func() error {
		for i := 0; i < evals; i++ {
			closedForms(float64(4096+i), priceP)
		}
		return nil
	})
	layer["core.eval_ns"] = median(walls) * 1e9 / (5 * evals)
	return nil
}

// probeOpt times the numeric optimizer behind /optimize.
func probeOpt(_ int64, layer map[string]float64) error {
	const solves = 200
	walls, err := timeN(5, func() error {
		for i := 0; i < solves; i++ {
			r := optimizeRequest("matmul", float64(8192+i), true, 2)
			if _, _, err := directOptimize(r.optimize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["opt.solve_us"] = median(walls) * 1e6 / solves
	return nil
}

// probeObs times one mix member with and without a ring-buffer observer, in
// interleaved pairs so that drift of the host cancels.
func probeObs(seed int64, layer map[string]float64) error {
	const pairs = 5
	run, _ := mixMembers[1].prepare(seed)
	var ratios, rates []float64
	for i := 0; i <= pairs; i++ {
		t0 := time.Now()
		if _, err := run(runMode{}); err != nil {
			return err
		}
		plain := time.Since(t0).Seconds()
		t0 = time.Now()
		h, err := run(runMode{ring: 4096})
		if err != nil {
			return err
		}
		observed := time.Since(t0).Seconds()
		if i == 0 {
			continue // the first pair warms both paths
		}
		ratios = append(ratios, observed/plain-1)
		rates = append(rates, float64(h.observed())/observed)
	}
	layer["obs.ring_overhead_frac"] = median(ratios)
	layer["obs.events_per_s"] = median(rates)
	return nil
}

// probeHandler times the service's handlers with no socket in the way.
func probeHandler(seed int64, layer map[string]float64) error {
	svc := newService()
	defer svc.close()
	h := svc.handler()
	call := func(r request) error {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, r.path+"?"+r.query, nil)
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			return fmt.Errorf("%s?%s: status %d", r.path, r.query, rw.Code)
		}
		return nil
	}
	stream := newCheapStream(seed, 0, 1)
	hit := stream.hot.price[0]
	if err := call(hit); err != nil {
		return err
	}
	const calls = 2000
	hits, err := timeN(calls, func() error { return call(hit) })
	if err != nil {
		return err
	}
	misses, err := timeN(calls, func() error {
		return call(priceRequest("matmul", stream.nextUnique(), false))
	})
	if err != nil {
		return err
	}
	optimizes, err := timeN(calls, func() error {
		return call(optimizeRequest("matmul", stream.nextUnique(), true, 2))
	})
	if err != nil {
		return err
	}
	layer["serve.handler_price_hit_us"] = median(hits) * 1e6
	layer["serve.handler_price_miss_us"] = median(misses) * 1e6
	layer["serve.handler_optimize_miss_us"] = median(optimizes) * 1e6
	return nil
}

// probeHTTP measures what the socket and the HTTP stack cost: /healthz does
// no work behind them, and an unloaded /simulate shows what the heavy path
// adds around the simulator's own wall time.
func probeHTTP(seed int64, layer map[string]float64) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	svc := newService()
	defer svc.close()
	ts := httptest.NewServer(svc.handler())
	defer ts.Close()
	c, err := newClient(ts.URL)
	if err != nil {
		return err
	}
	defer c.close()

	var t tally
	health := request{kind: kindHealth, path: "/healthz"}
	for i := 0; i < 4000; i++ {
		c.send(health, time.Now(), golden, &t, nil, 0)
	}
	floor := median(t.latS)

	t = tally{}
	stream := newSimulateStream(seed)
	for i := 0; i < 48; i++ {
		c.send(stream.next(), time.Now(), golden, &t, nil, 0)
	}
	if t.failed > 0 || len(t.latS) == 0 {
		return fmt.Errorf("%d of %d requests failed: %v", t.failed, t.attempted, t.errs)
	}
	layer["http.floor_us"] = floor * 1e6
	layer["serve.sim_wall_ms"] = median(t.simWallMs)
	layer["serve.heavy_overhead_ms"] = median(t.latS)*1e3 - median(t.simWallMs)
	return nil
}
