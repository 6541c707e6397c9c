package conformance

import (
	"fmt"
	"sync/atomic"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/sim"
)

// blindObserver is a counting-only event-bus subscriber: attaching it must
// not change a single counter or clock (observation is free in virtual
// time). Callbacks fire concurrently across ranks, so the count is atomic.
type blindObserver struct{ events atomic.Int64 }

func (o *blindObserver) OnCompute(int, sim.Segment)   { o.events.Add(1) }
func (o *blindObserver) OnSend(int, sim.Segment)      { o.events.Add(1) }
func (o *blindObserver) OnRecv(int, sim.Segment)      { o.events.Add(1) }
func (o *blindObserver) OnPhase(int, string, float64) { o.events.Add(1) }
func (o *blindObserver) OnFault(sim.FaultEvent)       { o.events.Add(1) }
func (o *blindObserver) OnCrash(sim.CrashEvent)       { o.events.Add(1) }
func (o *blindObserver) OnDeadlock(sim.DeadlockEvent) { o.events.Add(1) }
func (o *blindObserver) OnTimer(sim.TimerEvent)       { o.events.Add(1) }

// checkSimMetamorphic runs the simulator-level metamorphic family:
//
//   - observer identity: an attached observer never perturbs the run;
//   - simulated perfect strong scaling: the 2.5D matmul and the replicated
//     n-body at c > 1 run against their c = 1 baselines with p multiplied
//     by c and per-rank memory unchanged — T must drop by ≈c and the
//     priced E must stay ≈constant, the paper's theorem measured on the
//     live runtime rather than evaluated in closed form. This family
//     always runs (and prices) on the sim-default machine: it verifies
//     the clock semantics in the compute-dominated regime the theorem
//     addresses, which latency-heavy machines like jaketown never reach
//     at sweepable sizes; pricing conformance under arbitrary machines is
//     the differential family's job.
func checkSimMetamorphic(ck *checker, cfg Config) error {
	if err := checkObserverIdentity(ck, cfg); err != nil {
		return err
	}
	if err := checkSimStrongScalingMatMul(ck, cfg); err != nil {
		return err
	}
	return checkSimStrongScalingNBody(ck, cfg)
}

// statsIdentical compares two runs rank by rank, bit for bit.
func statsIdentical(a, b *sim.Result) (int, bool) {
	if len(a.PerRank) != len(b.PerRank) {
		return -1, false
	}
	for id := range a.PerRank {
		if a.PerRank[id] != b.PerRank[id] {
			return id, false
		}
	}
	return -1, true
}

func checkObserverIdentity(ck *checker, cfg Config) error {
	const alg = "matmul-2.5d"
	pt := Point{N: 48, Q: 4, C: 2, P: 32}
	a := matrix.Random(pt.N, pt.N, 23)
	b := matrix.Random(pt.N, pt.N, 24)
	blindCost := cfg.cost()
	blind, err := matmul.TwoPointFiveD(blindCost, pt.Q, pt.C, a, b)
	if err != nil {
		return fmt.Errorf("conformance: observer identity (blind): %w", err)
	}
	obs := &blindObserver{}
	obsCost := cfg.cost()
	obsCost.Observers = []sim.Observer{obs}
	observed, err := matmul.TwoPointFiveD(obsCost, pt.Q, pt.C, a, b)
	if err != nil {
		return fmt.Errorf("conformance: observer identity (observed): %w", err)
	}
	rank, same := statsIdentical(blind.Sim, observed.Sim)
	ck.checkTrue("metamorphic/observer-identity", alg, pt, "",
		same, float64(rank), -1,
		"attaching an observer changed per-rank stats (first differing rank in Got)")
	ck.checkTrue("metamorphic/observer-saw-events", alg, pt, "",
		obs.events.Load() > 0, float64(obs.events.Load()), 1,
		"the observer saw no events — the identity check observed nothing")
	return nil
}

// simScalingBands are the stated tolerances for the measured strong-scaling
// transform: T(c·p)·c/T(p) stays near 1 (the latency term grows as log c,
// so speedup is slightly sublinear) and E(c·p)/E(p) stays near 1 (the
// replicated footprint adds memory energy but W·p is flat). The points are
// sized so per-step compute dominates latency — the regime the theorem
// addresses; at toy sizes replication overhead swamps the 1/c compute drop.
var (
	simScalingTimeBand   = Band{0.9, 1.8}
	simScalingEnergyBand = Band{0.8, 1.6}
)

// scalingCost derives the sim-default cost for the live strong-scaling
// checks (see checkSimMetamorphic), still honouring the negative-testing
// mutation so a broken clock shows up here too.
func scalingCost(cfg Config) (machine.Params, sim.Cost) {
	def := Config{Machine: machine.SimDefault(), MutateCost: cfg.MutateCost}
	return def.Machine, def.cost()
}

func checkSimStrongScalingMatMul(ck *checker, cfg Config) error {
	const alg = "matmul-2.5d"
	const n, q = 192, 4 // big enough that comm overhead (∝n²) amortizes vs compute (∝n³)
	m, cost := scalingCost(cfg)
	a := matrix.Random(n, n, 25)
	b := matrix.Random(n, n, 26)
	base, err := matmul.TwoPointFiveD(cost, q, 1, a, b)
	if err != nil {
		return fmt.Errorf("conformance: sim strong scaling (c=1): %w", err)
	}
	baseT := base.Sim.Time()
	baseE := core.PriceSim(m, base.Sim).Total()
	for _, c := range []int{2, 4} {
		pt := Point{N: n, Q: q, C: c, P: q * q * c}
		scaled, err := matmul.TwoPointFiveD(cost, q, c, a, b)
		if err != nil {
			return fmt.Errorf("conformance: sim strong scaling (c=%d): %w", c, err)
		}
		t := scaled.Sim.Time()
		e := core.PriceSim(m, scaled.Sim).Total()
		ck.checkBand("metamorphic/sim-strong-scaling-time", alg, pt, "T",
			t*float64(c), baseT, simScalingTimeBand,
			fmt.Sprintf("measured T(c=%d)·%d vs T(c=1): perfect strong scaling on the live runtime", c, c))
		ck.checkBand("metamorphic/sim-strong-scaling-energy", alg, pt, "E",
			e, baseE, simScalingEnergyBand,
			fmt.Sprintf("measured E(c=%d) vs E(c=1): no additional energy on the live runtime", c))
	}
	return nil
}

func checkSimStrongScalingNBody(ck *checker, cfg Config) error {
	const alg = "nbody"
	const n, k = 256, 8 // ring size fixed: per-rank block and M stay constant
	m, cost := scalingCost(cfg)
	bodies := nbody.RandomBodies(n, 27)
	base, err := nbody.Replicated(cost, k, 1, bodies)
	if err != nil {
		return fmt.Errorf("conformance: n-body strong scaling (c=1): %w", err)
	}
	baseT := base.Sim.Time()
	baseE := core.PriceSim(m, base.Sim).Total()
	for _, c := range []int{2, 4} {
		p := k * c
		if k%c != 0 { // each team must cover an integer number of shift steps
			continue
		}
		pt := Point{N: n, P: p, C: c}
		scaled, err := nbody.Replicated(cost, p, c, bodies)
		if err != nil {
			return fmt.Errorf("conformance: n-body strong scaling (c=%d): %w", c, err)
		}
		t := scaled.Sim.Time()
		e := core.PriceSim(m, scaled.Sim).Total()
		ck.checkBand("metamorphic/sim-strong-scaling-time", alg, pt, "T",
			t*float64(c), baseT, simScalingTimeBand,
			fmt.Sprintf("measured n-body T(c=%d)·%d vs T(c=1)", c, c))
		ck.checkBand("metamorphic/sim-strong-scaling-energy", alg, pt, "E",
			e, baseE, simScalingEnergyBand,
			fmt.Sprintf("measured n-body E(c=%d) vs E(c=1)", c))
	}
	return nil
}
