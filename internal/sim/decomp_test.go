package sim

import (
	"math"
	"testing"
)

// TestClockDecompositionIdentity: ComputeTime + SendTime + RecvTime +
// WaitTime must equal the final clock on every rank, for arbitrary
// programs, under both charging semantics.
func TestClockDecompositionIdentity(t *testing.T) {
	for _, charge := range []bool{false, true} {
		cost := Cost{GammaT: 1e-9, BetaT: 3e-9, AlphaT: 1e-7, ChargeReceiver: charge}
		res, err := Run(6, cost, func(r *Rank) error {
			w := r.World()
			r.Compute(float64(1000 * (r.ID() + 1)))
			data := make([]float64, 64)
			for s := 0; s < 4; s++ {
				data = w.Shift(data, 1)
				r.Compute(500)
			}
			w.AllReduce(data, OpSum)
			w.AllReduce(nil, OpSum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, s := range res.PerRank {
			sum := s.ComputeTime + s.SendTime + s.RecvTime + s.WaitTime
			if math.Abs(sum-s.Time) > 1e-12*s.Time {
				t.Errorf("charge=%v rank %d: decomposition %g != clock %g", charge, id, sum, s.Time)
			}
		}
	}
}

func TestWaitTimeCapturesImbalance(t *testing.T) {
	// Rank 1 computes 100x longer; rank 0's wait time must absorb the gap.
	res, err := Run(2, Cost{GammaT: 1, AlphaT: 0.5}, func(r *Rank) error {
		if r.ID() == 1 {
			r.Compute(1000)
			r.Send(0, []float64{1})
		} else {
			r.Compute(10)
			r.Recv(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerRank[0]
	// Arrival = 1000.5; rank 0's own clock was 10 => wait 990.5.
	if math.Abs(s.WaitTime-990.5) > 1e-12 {
		t.Errorf("wait time: got %g want 990.5", s.WaitTime)
	}
	if s.ComputeTime != 10 {
		t.Errorf("compute time: got %g", s.ComputeTime)
	}
	if res.PerRank[1].WaitTime != 0 {
		t.Errorf("sender should not wait: %g", res.PerRank[1].WaitTime)
	}
	if res.PerRank[1].SendTime != 0.5 {
		t.Errorf("sender send time: got %g", res.PerRank[1].SendTime)
	}
}

func TestRecvTimeOnlyUnderChargeReceiver(t *testing.T) {
	run := func(charge bool) Stats {
		res, err := Run(2, Cost{AlphaT: 1, BetaT: 0.5, ChargeReceiver: charge}, func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, make([]float64, 4))
			} else {
				r.Recv(0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRank[1]
	}
	if got := run(false).RecvTime; got != 0 {
		t.Errorf("default semantics must not charge receive time: %g", got)
	}
	if got := run(true).RecvTime; got != 3 { // 1 + 4*0.5
		t.Errorf("charged receive time: got %g want 3", got)
	}
}

func TestDecompositionAggregates(t *testing.T) {
	res, err := Run(3, Cost{GammaT: 1}, func(r *Rank) error {
		r.Compute(float64(10 * (r.ID() + 1)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxStats().ComputeTime; got != 30 {
		t.Errorf("max compute time: got %g", got)
	}
	if got := res.TotalStats().ComputeTime; got != 60 {
		t.Errorf("total compute time: got %g", got)
	}
}
