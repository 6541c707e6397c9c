package opt

import (
	"errors"
	"math"
	"testing"
)

func TestMinAvgPowerUses1DLimit(t *testing.T) {
	pb := testNBody()
	cfg, pw := pb.MinAvgPowerConfig()
	// The returned configuration sits on the 1D limit p = n/M.
	if !approx(cfg.P, pb.N/cfg.Mem, 1e-9) {
		t.Errorf("power-optimal run should use p = n/M: p=%g M=%g", cfg.P, cfg.Mem)
	}
	// The reported power matches E/T there.
	if !approx(pw, pb.avgPower(cfg.P, cfg.Mem), 1e-9) {
		t.Errorf("reported power inconsistent: %g vs %g", pw, pb.avgPower(cfg.P, cfg.Mem))
	}
	// No sampled feasible configuration beats it.
	for _, mem := range []float64{cfg.Mem / 4, cfg.Mem / 2, cfg.Mem * 2, cfg.Mem * 4} {
		for _, mult := range []float64{1, 2, 8} {
			p := pb.N / mem * mult
			if p > pb.N*pb.N/(mem*mem) {
				continue // outside the 2D limit
			}
			if got := pb.avgPower(p, mem); got < pw*(1-1e-9) {
				t.Errorf("found lower power %g at p=%g M=%g than optimum %g", got, p, mem, pw)
			}
		}
	}
}

func TestMinAvgPowerVsMinEnergyDiffer(t *testing.T) {
	// Minimum power and minimum energy are different objectives: the
	// power-optimal run is on the 1D limit; the energy optimum allows a
	// whole range of p at M0.
	pb := testNBody()
	cfg, _ := pb.MinAvgPowerConfig()
	eAtPowerOpt := pb.Energy(cfg.Mem)
	if eAtPowerOpt < pb.MinEnergy() {
		t.Errorf("power-optimal energy %g cannot beat E* %g", eAtPowerOpt, pb.MinEnergy())
	}
}

func TestAvgPowerGrowsWithP(t *testing.T) {
	pb := testNBody()
	mem := pb.OptimalMemory()
	p1 := pb.avgPower(10, mem)
	p2 := pb.avgPower(20, mem)
	if p2 <= p1 {
		t.Errorf("average power should grow with p at fixed M: %g -> %g", p1, p2)
	}
	if !approx(p2, 2*p1, 1e-9) {
		t.Errorf("E const and T ∝ 1/p means power ∝ p: %g vs 2·%g", p2, p1)
	}
}

func TestMatMulMemRangeGivenProcPower(t *testing.T) {
	pb := testMatMul()
	// Find the power-minimizing memory and set a cap 30% above it.
	mMin, pMin := MinimizeUnimodal(pb.ProcPower, 1, pb.N*pb.N)
	cap := pMin * 1.3
	lo, hi, err := pb.MemRangeGivenProcPower(cap)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < mMin && mMin < hi) {
		t.Errorf("power-minimizing memory %g should lie inside [%g, %g]", mMin, lo, hi)
	}
	// Just inside: under cap. Just outside: over cap (when interior).
	if pb.ProcPower(lo*1.01) > cap*(1+1e-9) || pb.ProcPower(hi*0.99) > cap*(1+1e-9) {
		t.Error("interior of the returned range violates the cap")
	}
	if lo > 1.5 && pb.ProcPower(lo*0.9) < cap {
		t.Error("left of the range should violate the cap")
	}
	if hi < pb.N*pb.N/2 && pb.ProcPower(hi*1.1) < cap {
		t.Error("right of the range should violate the cap")
	}
	// Impossible cap.
	if _, _, err := pb.MemRangeGivenProcPower(pMin * 0.5); !errors.Is(err, ErrInfeasible) {
		t.Error("cap below the minimum power should be infeasible")
	}
}

func TestMatMulMinEnergyGivenProcPower(t *testing.T) {
	pb := testMatMul()
	mStar := pb.OptimalMemory()
	// Generous cap: global optimum.
	mem, e, err := pb.MinEnergyGivenProcPower(pb.ProcPower(mStar) * 3)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(mem, mStar, 1e-6) || !approx(e, pb.MinEnergy(), 1e-9) {
		t.Errorf("generous cap should give the global optimum: mem=%g e=%g", mem, e)
	}
	// Any returned configuration respects the cap.
	cap := pb.ProcPower(mStar) * 1.0001
	mem, e, err = pb.MinEnergyGivenProcPower(cap)
	if err != nil {
		t.Fatal(err)
	}
	if pb.ProcPower(mem) > cap*(1+1e-6) {
		t.Errorf("returned memory %g violates the cap", mem)
	}
	if e < pb.MinEnergy()*(1-1e-12) {
		t.Errorf("capped energy %g below global optimum", e)
	}
	_ = math.Pi
}

// avgPower returns E/T at a configuration.
func (pb NBody) avgPower(p, mem float64) float64 {
	return pb.Energy(mem) / pb.Time(p, mem)
}
