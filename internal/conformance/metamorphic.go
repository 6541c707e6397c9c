package conformance

import (
	"fmt"
	"sync/atomic"

	"perfscale/internal/analytics"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
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
	m, cost := scalingCost(cfg)
	// n = 192 is big enough that comm overhead (∝n²) amortizes vs compute (∝n³).
	rows, err := analytics.StrongMatMulCurve(m, cost, 192, 4, []int{1, 2, 4})
	if err != nil {
		return fmt.Errorf("conformance: sim strong scaling: %w", err)
	}
	checkStrongCurve(ck, rows, 4)
	return nil
}

func checkSimStrongScalingNBody(ck *checker, cfg Config) error {
	m, cost := scalingCost(cfg)
	// Ring size k = 8 fixed: the per-rank block and M stay constant.
	rows, err := analytics.StrongNBodyCurve(m, cost, 256, 8, []int{1, 2, 4})
	if err != nil {
		return fmt.Errorf("conformance: sim strong scaling: %w", err)
	}
	checkStrongCurve(ck, rows, 0)
	return nil
}

// checkStrongCurve checks every row of a measured strong-scaling curve
// against its first, c = 1 row: T·c against T(c=1) and E against E(c=1).
// q is the matmul grid edge of the rows' points, 0 for n-body.
func checkStrongCurve(ck *checker, rows []analytics.CurvePoint, q int) {
	base := rows[0]
	for _, r := range rows[1:] {
		pt := Point{N: r.N, Q: q, C: r.C, P: r.P}
		ck.checkBand("metamorphic/sim-strong-scaling-time", r.Algorithm, pt, "T",
			r.SimT*float64(r.C), base.SimT, simScalingTimeBand,
			fmt.Sprintf("measured %s T(c=%d)·%d vs T(c=1): perfect strong scaling on the live runtime", r.Algorithm, r.C, r.C))
		ck.checkBand("metamorphic/sim-strong-scaling-energy", r.Algorithm, pt, "E",
			r.EnergyJ, base.EnergyJ, simScalingEnergyBand,
			fmt.Sprintf("measured %s E(c=%d) vs E(c=1): no additional energy on the live runtime", r.Algorithm, r.C))
	}
}
