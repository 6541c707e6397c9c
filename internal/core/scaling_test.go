package core

import (
	"math"
	"testing"

	"perfscale/internal/bounds"
	"perfscale/internal/machine"
)

func TestMatMulStrongScalingSweepIsPerfect(t *testing.T) {
	m := testMachine()
	pts := MatMulStrongScalingSweep(m, 8192, 64, 8)
	if len(pts) != 8 {
		t.Fatalf("points: %d", len(pts))
	}
	eDev, tDev := PerfectScaling(pts)
	if eDev > 1e-12 {
		t.Errorf("model energy deviation %g, want 0 (perfect scaling)", eDev)
	}
	if tDev > 1e-12 {
		t.Errorf("model time deviation %g, want 0", tDev)
	}
	// Memory per processor is held fixed across the sweep.
	for _, pt := range pts {
		if pt.Mem != pts[0].Mem {
			t.Error("memory must be fixed in the sweep")
		}
	}
}

func TestFastMatMulStrongScalingSweepIsPerfect(t *testing.T) {
	m := testMachine()
	pts := FastMatMulStrongScalingSweep(m, 8192, 49, 6, bounds.OmegaStrassen)
	eDev, tDev := PerfectScaling(pts)
	if eDev > 1e-12 || tDev > 1e-12 {
		t.Errorf("Strassen sweep deviations: energy %g time %g", eDev, tDev)
	}
}

func TestNBodyStrongScalingSweepIsPerfect(t *testing.T) {
	m := testMachine()
	pts := NBodyStrongScalingSweep(m, 1e6, 100, 10, 16)
	eDev, tDev := PerfectScaling(pts)
	if eDev > 1e-12 || tDev > 1e-12 {
		t.Errorf("n-body sweep deviations: energy %g time %g", eDev, tDev)
	}
}

func TestPerfectScalingDetectsDeviation(t *testing.T) {
	pts := []ScalingPoint{
		{C: 1, Time: 10, Energy: 100},
		{C: 2, Time: 5, Energy: 110}, // 10% energy growth
	}
	eDev, tDev := PerfectScaling(pts)
	if !approx(eDev, 0.10, 1e-12) {
		t.Errorf("energy deviation: got %g want 0.1", eDev)
	}
	if tDev != 0 {
		t.Errorf("time deviation: got %g want 0", tDev)
	}
	pts[1].Time = 6 // c*T = 12 vs 10: 20% off
	_, tDev = PerfectScaling(pts)
	if !approx(tDev, 0.20, 1e-12) {
		t.Errorf("time deviation: got %g want 0.2", tDev)
	}
}

func TestPerfectScalingEmpty(t *testing.T) {
	e, d := PerfectScaling(nil)
	if e != 0 || d != 0 {
		t.Error("empty sweep should report zero deviations")
	}
}

func TestMatMul3DLimitSweep(t *testing.T) {
	m := testMachine()
	rs := MatMul3DLimitSweep(m, 4096, []float64{64, 512, 4096})
	if len(rs) != 3 {
		t.Fatalf("results: %d", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Energy.Memory >= rs[i-1].Energy.Memory {
			t.Error("memory energy must fall along the 3D limit")
		}
		if rs[i].Energy.Bandwidth <= rs[i-1].Energy.Bandwidth {
			t.Error("bandwidth energy must rise along the 3D limit")
		}
	}
}

func TestTwoLevelMatMulBehaviour(t *testing.T) {
	tl := machine.JaketownTwoLevel()
	n := 8192.0
	r := TwoLevelMatMul(tl, n, 2, 8)
	if r.Time <= 0 || r.Energy <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// More nodes with the same cores/node: time falls.
	r2 := TwoLevelMatMul(tl, n, 4, 8)
	if r2.Time >= r.Time {
		t.Errorf("time should fall with more nodes: %g -> %g", r.Time, r2.Time)
	}
}

func TestTwoLevelNBodyMatchesDerivation(t *testing.T) {
	// The printed Eq. 17 and the from-scratch two-level accounting must be
	// the same expression.
	tl := machine.JaketownTwoLevel()
	tl.EpsilonE = 1e-3 // make leakage terms visible
	for _, tc := range []struct{ n, pn, pl, f float64 }{
		{1e5, 2, 8, 16},
		{1e6, 16, 4, 8},
		{5e4, 1, 1, 2},
	} {
		a := TwoLevelNBody(tl, tc.n, tc.pn, tc.pl, tc.f)
		b := TwoLevelNBodyDerived(tl, tc.n, tc.pn, tc.pl, tc.f)
		if !approx(a.Time, b.Time, 1e-12) {
			t.Errorf("n=%g: T printed %g vs derived %g", tc.n, a.Time, b.Time)
		}
		if !approx(a.Energy, b.Energy, 1e-12) {
			t.Errorf("n=%g: E printed %g vs derived %g", tc.n, a.Energy, b.Energy)
		}
	}
}

func TestTwoLevelNBodyScalesWithNodes(t *testing.T) {
	tl := machine.JaketownTwoLevel()
	n, f := 1e6, 16.0
	r1 := TwoLevelNBody(tl, n, 2, 8, f)
	r2 := TwoLevelNBody(tl, n, 8, 8, f)
	if r2.Time >= r1.Time {
		t.Errorf("two-level n-body time should fall with more nodes: %g -> %g", r1.Time, r2.Time)
	}
}

func TestSweepMonotoneTime(t *testing.T) {
	m := testMachine()
	pts := MatMulStrongScalingSweep(m, 8192, 64, 8)
	for i := 1; i < len(pts); i++ {
		if pts[i].Time >= pts[i-1].Time {
			t.Error("time must fall with c")
		}
	}
	// c doubles => time halves exactly.
	if !approx(pts[1].Time, pts[0].Time/2, 1e-12) {
		t.Errorf("c=2 time: got %g want %g", pts[1].Time, pts[0].Time/2)
	}
	_ = math.Pi
}

func TestMatMulWeakScalingConstantEnergyPerFlop(t *testing.T) {
	m := testMachine()
	mem := float64(1 << 20)
	ps := []float64{16, 64, 256, 1024}
	pts := MatMulWeakScalingSweep(m, mem, ps)
	base := pts[0]
	n0 := math.Sqrt(mem * ps[0])
	e0 := base.Energy / (n0 * n0 * n0)
	for i, pt := range pts {
		n := math.Sqrt(mem * pt.P)
		perFlop := pt.Energy / (n * n * n)
		if !approx(perFlop, e0, 1e-12) {
			t.Errorf("point %d: energy per flop %g differs from %g", i, perFlop, e0)
		}
	}
	// Runtime grows as √p: T(64)/T(16) = √4 = 2 exactly in the model? T =
	// γt n³/p + βt' n³/(√M p) with n³ = (Mp)^{3/2}: both terms ∝ √p.
	if !approx(pts[1].Time, pts[0].Time*2, 1e-12) {
		t.Errorf("weak-scaling runtime should grow as √p: %g vs 2·%g", pts[1].Time, pts[0].Time)
	}
}

func TestNBodyWeakScalingConstantEnergyPerInteraction(t *testing.T) {
	m := testMachine()
	mem := 1e4
	ps := []float64{10, 40, 160}
	pts := NBodyWeakScalingSweep(m, mem, ps, 16)
	e0 := pts[0].Energy / (mem * ps[0] * mem * ps[0])
	for i, pt := range pts {
		n := mem * pt.P
		if !approx(pt.Energy/(n*n), e0, 1e-12) {
			t.Errorf("point %d: energy per interaction drifted", i)
		}
	}
	// Runtime grows linearly in p here (n² = M²p²; F/p = f·M²·p).
	if !approx(pts[1].Time, pts[0].Time*4, 1e-12) {
		t.Errorf("n-body weak runtime should grow as p: %g vs 4·%g", pts[1].Time, pts[0].Time)
	}
}
