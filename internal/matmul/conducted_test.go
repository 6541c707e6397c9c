package matmul

import (
	"context"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// TestConductedUnderContextBitIdentical pins the /simulate shapes (p = 128,
// n = 128, q = 8, c = 2) across the three ways a run can execute: conducted
// collectives under a cancel context (the service's default), conducted
// without one, and member by member (an empty fault plan selects it). Product, per-rank counters and clocks,
// virtual time and active pairs must agree bit for bit.
func TestConductedUnderContextBitIdentical(t *testing.T) {
	const n, q, c = 128, 8, 2
	a, b := randPair(n, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024}
	for name, alg := range map[string]func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error){
		"matmul25d": TwoPointFiveD, "summa25d": TwoPointFiveDSUMMA,
	} {
		run := func(faults *sim.FaultPlan, ctx context.Context) *RunResult {
			cost := base
			cost.Context = ctx
			cost.Faults = faults
			res, err := alg(cost, q, c, a, b)
			if err != nil {
				t.Fatalf("%s (fault plan %v): %v", name, faults != nil, err)
			}
			return res
		}
		ref := run(&sim.FaultPlan{}, nil)
		for label, got := range map[string]*RunResult{
			"conducted+context": run(nil, ctx), "conducted": run(nil, nil),
		} {
			if d := got.C.MaxAbsDiff(ref.C); d != 0 {
				t.Errorf("%s %s: product differs from the member-by-member run by %g", name, label, d)
			}
			if got.Sim.Time() != ref.Sim.Time() || got.Sim.ActivePairs != ref.Sim.ActivePairs {
				t.Errorf("%s %s: Time %g vs %g, ActivePairs %d vs %d", name, label,
					got.Sim.Time(), ref.Sim.Time(), got.Sim.ActivePairs, ref.Sim.ActivePairs)
			}
			for id := range ref.Sim.PerRank {
				if got.Sim.PerRank[id] != ref.Sim.PerRank[id] {
					t.Errorf("%s %s rank %d:\ngot: %+v\nref: %+v", name, label, id, got.Sim.PerRank[id], ref.Sim.PerRank[id])
				}
			}
		}
	}
}
