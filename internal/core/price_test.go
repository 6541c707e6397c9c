package core

import (
	"testing"

	"perfscale/internal/machine"
	"perfscale/internal/sim"
)

func TestPriceSimHandComputed(t *testing.T) {
	m := machine.Params{
		GammaT: 1, BetaT: 1, AlphaT: 1,
		GammaE: 2, BetaE: 3, AlphaE: 5, DeltaE: 7, EpsilonE: 11,
		MemWords: 1 << 20, MaxMsgWords: 1 << 20,
	}
	// Two ranks: rank 0 computes 10 flops; rank 1 sends 4 words in 1 message
	// to rank 0 and tracks 6 words of memory.
	res, err := sim.Run(2, sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}, func(r *sim.Rank) error {
		if r.ID() == 0 {
			r.Compute(10)
			r.Recv(1)
		} else {
			r.Alloc(6)
			r.Send(0, make([]float64, 4))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// T = max(rank0: 10 + wait, rank1: 1+4=5) => rank0 clock = max(10, 5)=10.
	T := res.Time()
	if T != 10 {
		t.Fatalf("T = %g, want 10", T)
	}
	e := PriceSim(m, res)
	if e.Compute != 2*10 {
		t.Errorf("compute energy %g", e.Compute)
	}
	if e.Bandwidth != 3*4 {
		t.Errorf("bandwidth energy %g", e.Bandwidth)
	}
	if e.Latency != 5*1 {
		t.Errorf("latency energy %g", e.Latency)
	}
	if e.Memory != 7*6*T {
		t.Errorf("memory energy %g", e.Memory)
	}
	if e.Leakage != 11*T*2 { // both ranks leak for the full runtime
		t.Errorf("leakage energy %g", e.Leakage)
	}
}
