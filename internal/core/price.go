package core

import (
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
