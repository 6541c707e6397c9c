package main

import (
	"fmt"
	"time"
)

// runConfig is what the command line gives a workload.
type runConfig struct {
	seed    int64
	seconds float64
	// rec is nil on an untraced run.
	rec *recorder
	// root is the workload's root span.
	root int
}

// passResult is what one pass of a workload measured.
type passResult struct {
	attempted, failed int
	// errs holds the first few failures, for the log.
	errs []string
	// endToEnd holds every end-to-end metric but peak_rss_mb, which is the
	// process's and is added by main.
	endToEnd map[string]float64
	// layer holds the per-layer metrics this pass can supply.
	layer map[string]float64
}

func (r *passResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// setupRepeats is how many times a workload sets up; setup_s is the median.
const setupRepeats = 3

// simWorkload is a list of members run back to back; one pass over the
// list is a round.
type simWorkload struct {
	members []simMember
	// units returns the work one round does, in the workload's op: ranks
	// for sim_scale, messages for sim_mix.
	units func(ranks int, msgs float64) float64
}

var simWorkloads = map[string]simWorkload{
	"sim_scale": {
		members: []simMember{scaleMember},
		units:   func(ranks int, _ float64) float64 { return float64(ranks) },
	},
	"sim_mix": {
		members: mixMembers,
		units:   func(_ int, msgs float64) float64 { return msgs },
	},
}

// preparedMember is a member with its inputs drawn.
type preparedMember struct {
	simMember
	run   func(runMode) (simHandle, error)
	check func(simHandle) error
	last  simHandle
}

// roundResult is one timed round.
type roundResult struct {
	wall      time.Duration // run + pricing, summed over the members
	perMember []time.Duration
	priceWall time.Duration
	stats     simStats // summed counts; ActivePairs summed too
}

// runRound runs, prices and golden-checks every member once.
func runRound(members []preparedMember, golden map[string]simStats, cfg runConfig, parent int, res *passResult) roundResult {
	rr := roundResult{perMember: make([]time.Duration, len(members))}
	for i := range members {
		m := &members[i]
		res.attempted++

		sp := cfg.rec.begin(parent, "alg.run")
		t0 := time.Now()
		h, err := m.run(runMode{})
		runWall := time.Since(t0)
		cfg.rec.end(sp)
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", m.name, err))
			continue
		}

		sp = cfg.rec.begin(parent, "core.price_sim")
		t0 = time.Now()
		stats := priceSim(h)
		priceWall := time.Since(t0)
		cfg.rec.end(sp)

		sp = cfg.rec.begin(parent, "verify")
		if err := checkGolden(golden, m.name, stats); err != nil {
			res.fail(err)
		}
		cfg.rec.end(sp)

		m.last = h
		rr.perMember[i] = runWall + priceWall
		rr.wall += runWall + priceWall
		rr.priceWall += priceWall
		rr.stats.Msgs += stats.Msgs
		rr.stats.Words += stats.Words
		rr.stats.ActivePairs += stats.ActivePairs
	}
	return rr
}

// runSim is the pass of sim_scale and sim_mix: set up (draw the inputs and
// run one untimed round) setupRepeats times, run timed rounds for
// cfg.seconds, then check each member's numerical output once against its
// serial reference.
func runSim(w simWorkload, cfg runConfig) (passResult, error) {
	res := passResult{endToEnd: map[string]float64{}, layer: map[string]float64{}}
	golden, err := loadGolden()
	if err != nil {
		return res, err
	}

	var members []preparedMember
	var setups []float64
	var coldWall time.Duration
	setupSpan := cfg.rec.begin(cfg.root, "setup")
	for rep := 0; rep < setupRepeats; rep++ {
		t0 := time.Now()
		sp := cfg.rec.begin(setupSpan, "inputs")
		members = members[:0]
		for _, m := range w.members {
			run, check := m.prepare(cfg.seed)
			members = append(members, preparedMember{simMember: m, run: run, check: check})
		}
		cfg.rec.end(sp)
		name := "warm_round"
		if rep == 0 {
			name = "cold_round"
		}
		sp = cfg.rec.begin(setupSpan, name)
		rr := runRound(members, golden, cfg, sp, &res)
		cfg.rec.end(sp)
		if rep == 0 {
			coldWall = rr.wall
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	cfg.rec.end(setupSpan)

	ranks := 0
	for _, m := range members {
		ranks += m.p
	}

	var rounds []roundResult
	timedSpan := cfg.rec.begin(cfg.root, "timed")
	host0, start := readHost(), time.Now()
	for time.Since(start).Seconds() < cfg.seconds {
		sp := cfg.rec.begin(timedSpan, "round")
		rounds = append(rounds, runRound(members, golden, cfg, sp, &res))
		cfg.rec.end(sp)
	}
	timedWall := time.Since(start).Seconds()
	host := readHost().since(host0)
	cfg.rec.end(timedSpan)

	sp := cfg.rec.begin(cfg.root, "verify.reference")
	for i := range members {
		res.attempted++
		if members[i].last.res == nil {
			res.fail(fmt.Errorf("%s: no run to check", members[i].name))
		} else if err := members[i].check(members[i].last); err != nil {
			res.fail(err)
		}
	}
	cfg.rec.end(sp)

	walls := make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i] = r.wall.Seconds()
	}
	last := rounds[len(rounds)-1]
	unitsPerRound := w.units(ranks, last.stats.Msgs)
	ops := unitsPerRound * float64(len(rounds))
	med := median(walls)

	res.endToEnd["setup_s"] = median(setups)
	res.endToEnd["ops_per_s"] = unitsPerRound / med
	res.endToEnd["lat_p50_ms"] = med * 1e3
	res.endToEnd["cpu_us_per_op"] = host.cpuS * 1e6 / ops

	hostLayers(res.layer, host, timedWall, ops)
	res.layer["work.cold_over_warm"] = coldWall.Seconds() / med
	res.layer["work.lat_p99_ms"] = percentile(walls, 0.99) * 1e3
	res.layer["work.samples"] = float64(len(walls))
	traceLayers(res.layer, cfg.rec, timedSpan, res.endToEnd["ops_per_s"])
	res.layer["sim.msgs_per_round"] = last.stats.Msgs
	res.layer["sim.words_per_round"] = last.stats.Words
	res.layer["sim.active_pairs"] = float64(last.stats.ActivePairs)
	priceShares := make([]float64, len(rounds))
	for i, r := range rounds {
		priceShares[i] = r.priceWall.Seconds() / r.wall.Seconds()
	}
	res.layer["core.price_share"] = median(priceShares)
	if len(members) > 1 {
		for j, m := range members {
			shares := make([]float64, len(rounds))
			for i, r := range rounds {
				shares[i] = r.perMember[j].Seconds() / r.wall.Seconds()
			}
			res.layer["alg."+m.name+".share"] = median(shares)
		}
	}
	return res, nil
}

// traceLayers fills the trace.* metrics of a timed stretch: what recording
// it cost, and the throughput it reached while recorded, to set beside the
// untraced runs' ops_per_s.
func traceLayers(layer map[string]float64, rec *recorder, timedSpan int, opsPerS float64) {
	layer["trace.overhead_frac"] = rec.overheadFrac(timedSpan)
	layer["trace.ops_per_s"] = opsPerS
}

// hostLayers fills the host.* metrics of a timed stretch.
func hostLayers(layer map[string]float64, host hostDelta, wallS, ops float64) {
	layer["host.cpu_cores"] = host.cpuS / wallS
	layer["host.gc_cpu_frac"] = host.gcCPUFrac
	layer["host.mutex_wait_frac"] = host.mutexWaitS / wallS
	layer["host.sched_lat_p99_us"] = host.schedP99Us
	layer["host.alloc_kb_per_op"] = host.allocBytes / 1024 / ops
	layer["host.mallocs_per_op"] = host.mallocs / ops
}
