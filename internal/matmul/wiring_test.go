package matmul

import (
	"context"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// TestTwoPointFiveDWiringBitIdentical pins the sparse-wiring acceptance
// criterion on a real algorithm: a p=256 2.5D multiplication produces a
// bit-identical product matrix and bit-identical per-rank counters and
// clocks under dense and sparse wiring.
func TestTwoPointFiveDWiringBitIdentical(t *testing.T) {
	const n, q, c = 32, 8, 4 // p = q²·c = 256
	a, b := randPair(n, 42)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 16, ChargeReceiver: true}

	runWith := func(w sim.Wiring) *RunResult {
		cw := cost
		cw.Wiring = w
		res, err := TwoPointFiveD(cw, q, c, a, b)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		return res
	}
	dense, sparse := runWith(sim.WiringDense), runWith(sim.WiringSparse)

	if d := dense.C.MaxAbsDiff(sparse.C); d != 0 {
		t.Errorf("product matrices differ between wirings: max diff %g", d)
	}
	for id := range dense.Sim.PerRank {
		if dense.Sim.PerRank[id] != sparse.Sim.PerRank[id] {
			t.Errorf("rank %d stats differ:\ndense:  %+v\nsparse: %+v",
				id, dense.Sim.PerRank[id], sparse.Sim.PerRank[id])
		}
	}
	if dense.Sim.Time() != sparse.Sim.Time() {
		t.Errorf("virtual time differs: dense %g sparse %g", dense.Sim.Time(), sparse.Sim.Time())
	}
}

// TestConductedUnderContextBitIdentical pins the /simulate shapes (p = 128,
// n = 128, q = 8, c = 2) across the three ways a run can execute: the event
// engine with a cancel context (conducted collectives, the service's
// default), the event engine without one, and the goroutine backend.
// Product, per-rank counters and clocks, virtual time and active pairs must
// agree bit for bit.
func TestConductedUnderContextBitIdentical(t *testing.T) {
	const n, q, c = 128, 8, 2
	a, b := randPair(n, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024}
	for name, alg := range map[string]func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error){
		"matmul25d": TwoPointFiveD, "summa25d": TwoPointFiveDSUMMA,
	} {
		run := func(rt sim.Runtime, ctx context.Context) *RunResult {
			cost := base
			cost.Runtime, cost.Context = rt, ctx
			res, err := alg(cost, q, c, a, b)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, rt, err)
			}
			return res
		}
		ref := run(sim.RuntimeGoroutine, nil)
		for label, got := range map[string]*RunResult{
			"event+context": run(sim.RuntimeEvent, ctx), "event": run(sim.RuntimeEvent, nil),
		} {
			if d := got.C.MaxAbsDiff(ref.C); d != 0 {
				t.Errorf("%s %s: product differs from goroutine by %g", name, label, d)
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
