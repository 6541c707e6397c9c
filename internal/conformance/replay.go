package conformance

import (
	"fmt"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// checkReplay verifies the determinism everything else stands on: a seeded
// FaultPlan re-run twice must produce identical Results — same per-rank
// counters and clocks bit for bit, same numerical output, same error. Two
// plan shapes run per seed:
//
//   - a stream-preserving chaos plan (corruptions plus a degraded-link
//     window — duplication would shift the message stream under an
//     algorithm that is not dup-tolerant) that completes: per-rank stats
//     and the product matrix must replay bitwise;
//   - a crash plan that kills one rank mid-run: both runs must fail, with
//     identical error strings (the crash, its cascade, and every rank's
//     exit route are all functions of virtual time only).
func checkReplay(ck *checker, cfg Config) error {
	for _, seed := range cfg.Seeds {
		if err := replayChaos(ck, cfg, seed); err != nil {
			return err
		}
		replayCrash(ck, cfg, seed)
	}
	return nil
}

// chaosPlan builds the stream-preserving fault plan for one seed: every
// link corrupts payloads with moderate probability, and one window early
// in the run degrades all links. No drops, duplications or crashes, so
// every rank sees exactly the message stream the algorithm wrote and the
// run completes.
func chaosPlan(seed uint64) *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed: seed,
		Links: []sim.LinkFault{
			{Src: -1, Dst: -1, CorruptProb: 0.25},
		},
		Degraded: []sim.DegradedLink{
			{Src: -1, Dst: -1, From: 0, Until: 1e-4, AlphaFactor: 3, BetaFactor: 2},
		},
	}
}

func replayChaos(ck *checker, cfg Config, seed uint64) error {
	const alg = "matmul-2.5d"
	pt := Point{N: 48, Q: 4, C: 2, P: 32}
	a := matrix.Random(pt.N, pt.N, 31)
	b := matrix.Random(pt.N, pt.N, 32)
	run := func() (*matmul.RunResult, error) {
		cost := cfg.cost()
		cost.Faults = chaosPlan(seed)
		return matmul.TwoPointFiveD(cost, pt.Q, pt.C, a, b)
	}
	first, err := run()
	if err != nil {
		return fmt.Errorf("conformance: replay seed %#x (first run): %w", seed, err)
	}
	second, err := run()
	if err != nil {
		return fmt.Errorf("conformance: replay seed %#x (second run): %w", seed, err)
	}
	rank, same := statsIdentical(first.Sim, second.Sim)
	ck.checkTrue("replay/per-rank-stats", alg, pt, "",
		same, float64(rank), -1,
		fmt.Sprintf("seed %#x: per-rank stats differ between identical runs (first differing rank in Got)", seed))
	ck.checkTrue("replay/numerics", alg, pt, "",
		first.C.MaxAbsDiff(second.C) == 0,
		first.C.MaxAbsDiff(second.C), 0,
		fmt.Sprintf("seed %#x: numerical output differs between identical runs", seed))
	ck.checkTrue("replay/active-pairs", alg, pt, "",
		first.Sim.ActivePairs == second.Sim.ActivePairs,
		float64(first.Sim.ActivePairs), float64(second.Sim.ActivePairs),
		fmt.Sprintf("seed %#x: wired pair count differs between identical runs", seed))
	return nil
}

// replayCrash kills one rank partway through the run and requires both
// replays to fail identically. The crash time is a fraction of the clean
// run's measured virtual makespan so the crash lands mid-run on any
// machine (an absolute time would fire after a fast machine finished).
func replayCrash(ck *checker, cfg Config, seed uint64) {
	const alg = "matmul-2.5d"
	pt := Point{N: 48, Q: 4, C: 2, P: 32}
	a := matrix.Random(pt.N, pt.N, 33)
	b := matrix.Random(pt.N, pt.N, 34)
	crashRank := int(seed % uint64(pt.P))
	clean, err := matmul.TwoPointFiveD(cfg.cost(), pt.Q, pt.C, a, b)
	if err != nil {
		ck.checkTrue("replay/crash-baseline", alg, pt, "", false, 0, 0,
			fmt.Sprintf("clean baseline for the crash replay failed: %v", err))
		return
	}
	crashTime := clean.Sim.Time() * 0.3
	run := func() string {
		cost := cfg.cost()
		cost.Faults = &sim.FaultPlan{
			Seed:    seed,
			Crashes: map[int]float64{crashRank: crashTime},
		}
		_, err := matmul.TwoPointFiveD(cost, pt.Q, pt.C, a, b)
		if err == nil {
			return ""
		}
		return err.Error()
	}
	first := run()
	second := run()
	ck.checkTrue("replay/crash-fails", alg, pt, "",
		first != "", 0, 1,
		fmt.Sprintf("seed %#x: crashing rank %d did not fail the run", seed, crashRank))
	ck.checkTrue("replay/crash-error-identical", alg, pt, "",
		first == second, float64(len(first)), float64(len(second)),
		fmt.Sprintf("seed %#x: crash error differs between identical runs:\n--- first\n%s\n--- second\n%s", seed, first, second))
}
