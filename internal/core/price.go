package core

import (
	"perfscale/internal/bounds"
	"perfscale/internal/machine"
	"perfscale/internal/sim"
)

// SimCost is machine m's clock for the simulator: γt, βt, αt and the
// message-size cap. The energy parameters never reach a run; PriceSim
// applies them to the finished counters.
func SimCost(m machine.Params) sim.Cost {
	return sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
}

// PriceSim applies the paper's energy model (Eq. 2) to a finished
// simulation: each rank's measured flops, words and messages are priced
// individually, every rank is charged δe·M·T + εe·T for the full simulated
// runtime T (memory stays powered and circuits leak until the last rank
// finishes), and the per-rank energies are summed.
//
// This is the "measured" energy of the experiments: the model applied to
// real counters rather than to closed-form cost expressions.
func PriceSim(m machine.Params, res *sim.Result) EnergyBreakdown {
	T := res.Time()
	var e EnergyBreakdown
	for _, s := range res.PerRank {
		e.Compute += m.GammaE * s.Flops
		e.Bandwidth += m.BetaE * s.WordsSent
		e.Latency += m.AlphaE * s.MsgsSent
		e.Memory += m.DeltaE * s.PeakMemWords * T
		e.Leakage += m.EpsilonE * T
	}
	return e
}

// PriceSimResult wraps PriceSim into a full Result using the busiest
// rank's counters as the per-processor F/W/S and the simulated runtime as
// T, so the measured configuration can be compared against model
// evaluations of the same (p, M) point.
func PriceSimResult(m machine.Params, res *sim.Result) Result {
	s := res.MaxStats()
	p := float64(len(res.PerRank))
	r := Result{
		P:   p,
		Mem: s.PeakMemWords,
		Costs: bounds.Costs{
			Flops: s.Flops,
			Words: s.WordsSent,
			Msgs:  s.MsgsSent,
		},
		Time: TimeBreakdown{
			Compute:   m.GammaT * s.Flops,
			Bandwidth: m.BetaT * s.WordsSent,
			Latency:   m.AlphaT * s.MsgsSent,
		},
		Energy: PriceSim(m, res),
	}
	return r
}

// SimEfficiency returns the measured GFLOPS/W of a simulation: total flops
// actually executed divided by the priced energy.
func SimEfficiency(m machine.Params, res *sim.Result) float64 {
	return res.TotalStats().Flops / PriceSim(m, res).Total() / 1e9
}
