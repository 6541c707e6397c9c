package conformance

import (
	"fmt"

	"perfscale/internal/core"
	"perfscale/internal/matrix"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// The recovery family checks the self-healing runtime end to end: a SUMMA
// run over the ARQ endpoints under a seeded plan of silent drops,
// duplications and corruptions must
//
//   - complete (no deadlock abort: every injected loss is recovered by a
//     virtual-time retransmission, not by the deadlock detector);
//   - produce a product bit-identical to the fault-free run — recovery
//     changes when work happens, never what is computed;
//   - pay a bounded, pinned overhead in T and E relative to the clean run
//     (the bands below are golden values, calibrated like the differential
//     bands: run with Verbose and widen only with justification);
//   - replay deterministically: per-rank sim stats and per-rank ARQ
//     counters agree bitwise across two runs of the same plan.
//
// recoveryTimeBand and recoveryEnergyBand bound chaos/clean for T and E.
// The floor is 1 − ε: a masked drop can only add waiting, never remove
// work. The ceilings cover the measured overhead across DefaultSeeds on
// both sweep machines (ratios land at 1.8–3.3 for T and 1.01–1.37 for E;
// E moves less because leakage and memory energy scale with T while the
// dominant compute/bandwidth terms are fault-invariant).
var (
	recoveryTimeBand   = Band{1 - 1e-9, 4.0}
	recoveryEnergyBand = Band{1 - 1e-9, 2.0}
)

// recoveryFaults is the chaos plan for one seed: silent drops (the fault
// class Reliable cannot mask and ARQ exists for) plus duplication and
// corruption on every link at once.
func recoveryFaults(seed uint64) *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed: seed,
		Links: []sim.LinkFault{
			{Src: -1, Dst: -1, DropProb: 0.02, DupProb: 0.02, CorruptProb: 0.02},
		},
	}
}

// recoveryPoints sizes the sweep: quick runs one p=16 grid, full adds a
// p=36 grid.
func recoveryPoints(level Level) []Point {
	pts := []Point{{N: 32, P: 16, Q: 4}}
	if level == Full {
		pts = append(pts, Point{N: 48, P: 36, Q: 6})
	}
	return pts
}

// recoverySeeds keeps the quick gate to one plan per point; the full sweep
// replays every configured seed.
func recoverySeeds(cfg Config) []uint64 {
	if cfg.Level == Full {
		return cfg.Seeds
	}
	return cfg.Seeds[:1]
}

func checkRecovery(ck *checker, cfg Config) error {
	// Like the metamorphic and replay families, recovery points are not
	// algorithm-registry points and do not count toward Report.Points.
	const alg = "summa-arq"
	for _, pt := range recoveryPoints(cfg.Level) {
		if err := checkRecoveryPoint(ck, cfg, alg, pt); err != nil {
			return err
		}
	}
	return nil
}

func checkRecoveryPoint(ck *checker, cfg Config, alg string, pt Point) error {
	a := matrix.Random(pt.N, pt.N, 41)
	b := matrix.Random(pt.N, pt.N, 42)
	nb := pt.N / pt.Q
	arqCfg := resilience.ARQDefaults(cfg.cost(), nb*nb)
	// A tight retransmission budget keeps the overhead bands meaningful on
	// these toy grids: a dropped ack walks the whole budget before the
	// sender completes optimistically, and at the default 8 attempts that
	// single walk (~191·RTO) dwarfs the clean makespan. Three attempts
	// still exercise backoff, jitter and optimistic completion.
	arqCfg.MaxAttempts = 3
	arqCfg.MaxRTO = 8 * arqCfg.RTO

	clean, err := resilience.SUMMAARQ(cfg.cost(), pt.Q, arqCfg, a, b)
	if err != nil {
		return fmt.Errorf("conformance: recovery clean baseline %s: %w", pt, err)
	}
	cleanRep := clean.Report()
	ck.checkTrue("recovery/clean-overhead-free", alg, pt, "",
		cleanRep.Retransmits == 0 && cleanRep.Timeouts == 0 && cleanRep.OptimisticSends == 0,
		float64(cleanRep.Retransmits), 0,
		"fault-free run paid protocol overhead: the ARQ timers fired without faults")
	cleanT := clean.Sim.Time()
	cleanE := core.PriceSim(ck.m, clean.Sim).Total()

	for _, seed := range recoverySeeds(cfg) {
		run := func() (*resilience.SUMMAARQResult, error) {
			cost := cfg.cost()
			cost.Faults = recoveryFaults(seed)
			return resilience.SUMMAARQ(cost, pt.Q, arqCfg, a, b)
		}
		first, err := run()
		ck.checkTrue("recovery/drop-masking-completes", alg, pt, "",
			err == nil, 0, 0,
			fmt.Sprintf("seed %#x: drop-injected run aborted instead of self-healing: %v", seed, err))
		if err != nil {
			continue
		}
		ck.checkTrue("recovery/drop-masking-numerics", alg, pt, "",
			first.C.MaxAbsDiff(clean.C) == 0,
			first.C.MaxAbsDiff(clean.C), 0,
			fmt.Sprintf("seed %#x: recovered product differs from the fault-free product", seed))
		rep := first.Report()
		ck.checkTrue("recovery/faults-exercised", alg, pt, "",
			rep.Retransmits > 0,
			float64(rep.Retransmits), 1,
			fmt.Sprintf("seed %#x: the chaos plan injected nothing this run masks; raise the drop rate", seed))
		ck.checkBand("recovery/time-overhead", alg, pt, "T",
			first.Sim.Time(), cleanT, recoveryTimeBand,
			fmt.Sprintf("seed %#x: recovered makespan outside the pinned overhead band", seed))
		ck.checkBand("recovery/energy-overhead", alg, pt, "E",
			core.PriceSim(ck.m, first.Sim).Total(), cleanE, recoveryEnergyBand,
			fmt.Sprintf("seed %#x: recovered energy outside the pinned overhead band", seed))

		second, err := run()
		if err != nil {
			ck.checkTrue("recovery/drop-masking-completes", alg, pt, "",
				false, 0, 0,
				fmt.Sprintf("seed %#x: replay of a completed plan aborted: %v", seed, err))
			continue
		}
		rank, same := statsIdentical(first.Sim, second.Sim)
		ck.checkTrue("recovery/replay-stats", alg, pt, "",
			same, float64(rank), -1,
			fmt.Sprintf("seed %#x: per-rank stats differ across replays of one plan (first differing rank in Got)", seed))
		arqRank, arqSame := -1, true
		for id := range first.ARQ {
			if first.ARQ[id] != second.ARQ[id] {
				arqRank, arqSame = id, false
				break
			}
		}
		ck.checkTrue("recovery/replay-arq-counters", alg, pt, "",
			arqSame, float64(arqRank), -1,
			fmt.Sprintf("seed %#x: ARQ counters differ across replays of one plan (first differing rank in Got)", seed))
	}
	return nil
}

// checkRecoveryController verifies the energy-priced recovery controller's
// closed-form contract on the sweep machine (no simulator involved): the
// chosen strategy is the energy argmin over the feasible set, feasibility
// verdicts are coherent, and lost progress is monotone — respawning later
// in the run can never get cheaper.
func checkRecoveryController(ck *checker) {
	const alg = "recovery-controller"
	rc := resilience.NewRecoveryController(ck.m)
	contexts := []resilience.FailureContext{
		{N: 256, Q: 4, Replicas: 2, Step: 3, Steps: 4, CheckpointPeriod: 2, HaveBuddy: true, SpareRebootTime: 0.5},
		{N: 512, Q: 8, Replicas: 4, Step: 7, Steps: 8, CheckpointPeriod: 4, HaveBuddy: true, SpareRebootTime: 2},
		{N: 128, Q: 2, Replicas: 1, Step: 1, Steps: 2, CheckpointPeriod: 1, HaveBuddy: true},
		{N: 256, Q: 4, Replicas: 1, Step: 2, Steps: 4, HaveBuddy: false, SpareRebootTime: 1},
	}
	for _, fc := range contexts {
		pt := Point{N: fc.N, P: fc.Q * fc.Q * fc.Replicas, Q: fc.Q, C: fc.Replicas}
		choice := rc.Choose(fc)
		ck.checkTrue("recovery/controller-feasible-choice", alg, pt, "E",
			choice.Feasible, 0, 1,
			"Choose returned an infeasible strategy although respawn is always available")
		for _, sc := range rc.Evaluate(fc) {
			if sc.Feasible {
				ck.checkTrue("recovery/controller-argmin", alg, pt, "E",
					choice.Energy <= sc.Energy,
					choice.Energy, sc.Energy,
					fmt.Sprintf("Choose picked %v but %v is cheaper", choice.Strategy, sc.Strategy))
				ck.checkTrue("recovery/controller-positive-cost", alg, pt, "E",
					sc.Time > 0 && sc.Energy > 0,
					sc.Energy, 0,
					fmt.Sprintf("feasible strategy %v priced at a non-positive cost", sc.Strategy))
			} else {
				ck.checkTrue("recovery/controller-reasoned-verdict", alg, pt, "",
					sc.Reason != "", 0, 0,
					fmt.Sprintf("infeasible strategy %v carries no reason", sc.Strategy))
			}
		}
	}
	// Monotonicity: the respawn bill grows with the progress a failure
	// destroys, on any machine.
	fc := contexts[0]
	prev := -1.0
	for step := 0; step < fc.Steps; step++ {
		fc.Step = step
		resp := rc.Evaluate(fc)[int(resilience.StrategyRespawn)]
		ck.checkTrue("recovery/controller-respawn-monotone", alg,
			Point{N: fc.N, P: fc.Q * fc.Q * fc.Replicas, Q: fc.Q, C: fc.Replicas}, "E",
			resp.Energy > prev,
			resp.Energy, prev,
			fmt.Sprintf("respawn energy did not grow from step %d to %d", step-1, step))
		prev = resp.Energy
	}
}
