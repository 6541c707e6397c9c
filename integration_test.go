// Integration tests across modules: every multiplication algorithm agrees
// on the same product, simulator measurements track model predictions as p
// scales, the energy pricing of real runs reproduces the perfect-scaling
// story, and the two-level link model lines up with the two-level closed
// forms qualitatively.
package perfscale_test

import (
	"math"
	"testing"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/lu"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

// TestAllMultipliersAgree runs every matrix-multiplication implementation
// in the repository on the same operands and requires one answer.
func TestAllMultipliersAgree(t *testing.T) {
	const n = 112 // divisible by 4 (grids), 16, and the CAPS constraints
	a := matrix.Random(n, n, 100)
	b := matrix.Random(n, n, 200)
	want := matrix.Mul(a, b)

	check := func(name string, c *matrix.Dense, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := c.MaxAbsDiff(want); d > 1e-9*n {
			t.Errorf("%s: max diff %g", name, d)
		}
	}

	cannon, err := matmul.TwoPointFiveD(sim.Cost{}, 4, 1, a, b)
	check("cannon", cannon.C, err)
	summa, err := matmul.TwoPointFiveDSUMMA(sim.Cost{}, 4, 1, a, b)
	check("summa", summa.C, err)
	td, err := matmul.TwoPointFiveD(sim.Cost{}, 4, 2, a, b)
	check("2.5D", td.C, err)
	threeD, err := matmul.ThreeD(sim.Cost{}, 4, a, b)
	check("3D", threeD.C, err)
	serialStrassen := strassen.Multiply(a, b, 16)
	check("serial strassen", serialStrassen, nil)
	caps, err := strassen.CAPS(sim.Cost{}, 1, a, b, 16)
	check("CAPS", caps.C, err)
	capsDFS, err := strassen.CAPSSchedule(sim.Cost{}, "DB", a, b, 16)
	check("CAPS DB", capsDFS.C, err)
}

// TestSimTracksModelScaling verifies that, as p grows with fixed problem
// and per-rank memory, the simulator's measured times fall in the same
// proportions as the model's predicted times (within a tolerance that
// absorbs the collectives' constant factors).
func TestSimTracksModelScaling(t *testing.T) {
	m := machine.Params{
		GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8,
		GammaE: 1e-9, BetaE: 4e-9, AlphaE: 0, DeltaE: 1e-10, EpsilonE: 0,
		MemWords: 1 << 30, MaxMsgWords: 1 << 24,
	}
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	const n = 96
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)

	type point struct{ simT, modelT float64 }
	var pts []point
	for _, c := range []int{1, 2, 4} {
		res, err := matmul.TwoPointFiveD(cost, 4, c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(16 * c)
		mem := res.Sim.MaxStats().PeakMemWords
		model := core.MatMulClassical(m, n, p, mem)
		pts = append(pts, point{res.Sim.Time(), model.TotalTime()})
	}
	for i := 1; i < len(pts); i++ {
		simRatio := pts[0].simT / pts[i].simT
		modelRatio := pts[0].modelT / pts[i].modelT
		if simRatio < 0.55*modelRatio || simRatio > 1.8*modelRatio {
			t.Errorf("scaling step %d: sim ratio %g vs model ratio %g", i, simRatio, modelRatio)
		}
	}
}

// TestMeasuredEnergyPlateau prices real 2.5D matmul runs with the paper's
// model: across c = 1, 2, 4 at fixed per-rank memory, the measured energy
// must stay within a tight band (the measured counterpart of "no
// additional energy") — even though p quadruples.
func TestMeasuredEnergyPlateau(t *testing.T) {
	m := machine.Params{
		GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8,
		GammaE: 1e-9, BetaE: 4e-9, AlphaE: 1e-8, DeltaE: 1e-11, EpsilonE: 1e-4,
		MemWords: 1 << 30, MaxMsgWords: 1 << 24,
	}
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	const n = 192
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)

	var energies []float64
	for _, c := range []int{1, 2, 4} {
		res, err := matmul.TwoPointFiveD(cost, 4, c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, core.PriceSim(m, res.Sim).Total())
	}
	for i := 1; i < len(energies); i++ {
		ratio := energies[i] / energies[0]
		if ratio < 0.8 || ratio > 1.35 {
			t.Errorf("measured energy moved %.0f%% at step %d (plateau expected): %v",
				100*(ratio-1), i, energies)
		}
	}
}

// TestMeasuredNBodyEnergyPlateau is the n-body counterpart.
func TestMeasuredNBodyEnergyPlateau(t *testing.T) {
	m := machine.Params{
		GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8,
		GammaE: 1e-9, BetaE: 4e-9, AlphaE: 1e-8, DeltaE: 1e-11, EpsilonE: 1e-4,
		MemWords: 1 << 30, MaxMsgWords: 1 << 24,
	}
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	bodies := nbody.RandomBodies(512, 7)

	var energies []float64
	for _, c := range []int{1, 2, 4} {
		res, err := nbody.Replicated(cost, 8*c, c, bodies)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, core.PriceSim(m, res.Sim).Total())
	}
	for i := 1; i < len(energies); i++ {
		ratio := energies[i] / energies[0]
		if ratio < 0.8 || ratio > 1.35 {
			t.Errorf("n-body measured energy moved %.0f%% at step %d: %v", 100*(ratio-1), i, energies)
		}
	}
}

// TestLUvsMatMulScalingContrast: the paper's Section IV contrast in one
// test. Replication buys 2.5D matmul bandwidth (a bandwidth-only clock
// improves with c), but it cannot buy LU latency (a latency-only clock
// does not improve — the q-step panel critical path remains).
func TestLUvsMatMulScalingContrast(t *testing.T) {
	const n = 64
	a := matrix.Random(n, n, 9)
	b := matrix.Random(n, n, 10)
	bw := sim.Cost{BetaT: 1}
	mm1, err := matmul.TwoPointFiveD(bw, 4, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	mm4, err := matmul.TwoPointFiveD(bw, 4, 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	mmGain := mm1.Sim.Time() / mm4.Sim.Time()
	if mmGain <= 1.2 {
		t.Errorf("matmul bandwidth critical path should improve with c: gain %g", mmGain)
	}

	lat := sim.Cost{AlphaT: 1}
	ad := matrix.RandomDiagDominant(n, 11)
	lu1, err := lu.Stacked(lat, 4, 1, ad)
	if err != nil {
		t.Fatal(err)
	}
	lu4, err := lu.Stacked(lat, 4, 4, ad)
	if err != nil {
		t.Fatal(err)
	}
	luGain := lu1.Sim.Time() / lu4.Sim.Time()
	if luGain > 1.2 {
		t.Errorf("LU latency should not strong-scale with c: gain %g", luGain)
	}
}

// TestTwoLevelLinksMatchTwoLevelModelShape runs Cannon under two-level
// links with increasingly expensive inter-node transfers; simulated time
// must grow, and the two-level closed form must predict the same direction
// when its inter-node β grows.
func TestTwoLevelLinksMatchTwoLevelModelShape(t *testing.T) {
	const n, q = 64, 4
	a := matrix.Random(n, n, 13)
	b := matrix.Random(n, n, 14)
	run := func(interBeta float64) float64 {
		links := sim.TwoLevelLinks{
			CoresPerNode: 4,
			IntraAlpha:   1e-8, IntraBeta: 1e-9,
			InterAlpha: 1e-7, InterBeta: interBeta,
		}
		res, err := matmul.TwoPointFiveD(sim.Cost{GammaT: 1e-9, Links: links}, q, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return res.Sim.Time()
	}
	t1 := run(1e-9)
	t2 := run(16e-9)
	if t2 <= t1 {
		t.Errorf("slower inter-node links must slow the run: %g -> %g", t1, t2)
	}

	tl := machine.JaketownTwoLevel()
	m1 := core.TwoLevelMatMul(tl, 8192, 4, 4)
	tl.BetaTN *= 16
	m2 := core.TwoLevelMatMul(tl, 8192, 4, 4)
	if m2.Time <= m1.Time {
		t.Errorf("two-level model must agree in direction: %g -> %g", m1.Time, m2.Time)
	}
}

// TestBoundsNeverExceedMeasurement: the lower-bound expressions must not
// exceed (up to the model's dropped constants) the words actually moved by
// the implementations — i.e. the implementations cannot beat the bounds by
// more than the known constant factors.
func TestBoundsNeverExceedMeasurement(t *testing.T) {
	const n = 96
	a := matrix.Random(n, n, 15)
	b := matrix.Random(n, n, 16)
	for _, tc := range []struct{ q, c int }{{4, 1}, {4, 2}, {4, 4}} {
		res, err := matmul.TwoPointFiveD(sim.Cost{}, tc.q, tc.c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(tc.q * tc.q * tc.c)
		bound := bounds.MatMul25D(n, p, float64(tc.c)).Words
		measured := res.Sim.MaxStats().WordsSent
		if measured < bound/4 {
			t.Errorf("q=%d c=%d: measured words %g beat the bound %g by more than the dropped constants",
				tc.q, tc.c, measured, bound)
		}
	}
}

// TestEfficiencyMeasuredVsModel compares the measured GFLOPS/W of a real
// run against the model's prediction for the same configuration: they must
// agree within the constant factors the model drops.
func TestEfficiencyMeasuredVsModel(t *testing.T) {
	m := machine.SimDefault()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
	const n = 96
	a := matrix.Random(n, n, 17)
	b := matrix.Random(n, n, 18)
	res, err := matmul.TwoPointFiveD(cost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	measured := res.Sim.TotalStats().Flops / core.PriceSim(m, res.Sim).Total() / 1e9
	mem := res.Sim.MaxStats().PeakMemWords
	model := core.MatMulClassical(m, n, 32, mem).GFLOPSPerWatt()
	ratio := measured / model
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("measured efficiency %g vs model %g (ratio %g) outside constant-factor band",
			measured, model, ratio)
	}
	_ = math.Pi
}

// TestModelAccuracySweep is experiment E21: the Section VI intent of
// "evaluating accuracy" of the linear model, done against the simulator.
// Across a grid of (n, q, c) configurations, the ratio of simulated time to
// model time must stay within a narrow band — a drifting ratio would mean
// the linear model misses a trend, which is exactly what the paper claims
// it does not.
func TestModelAccuracySweep(t *testing.T) {
	m := machine.Params{
		GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8,
		GammaE: 1e-9, BetaE: 4e-9, AlphaE: 1e-8, DeltaE: 1e-11, EpsilonE: 1e-4,
		MemWords: 1 << 30, MaxMsgWords: 1 << 24,
	}
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	var ratios []float64
	for _, n := range []int{48, 96, 192} {
		for _, cfg := range []struct{ q, c int }{{2, 1}, {4, 1}, {4, 2}, {4, 4}} {
			a := matrix.Random(n, n, int64(n))
			b := matrix.Random(n, n, int64(n)+1)
			res, err := matmul.TwoPointFiveD(cost, cfg.q, cfg.c, a, b)
			if err != nil {
				t.Fatal(err)
			}
			p := float64(cfg.q * cfg.q * cfg.c)
			mem := res.Sim.MaxStats().PeakMemWords
			model := core.MatMulClassical(m, float64(n), p, mem)
			ratios = append(ratios, res.Sim.Time()/model.TotalTime())
		}
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	// The measured/model ratio must be a stable constant: spread under 3.5x
	// across a 16x range of p and a 4x range of n (the paper's own accuracy
	// bar is "capture general trends", not cycle accuracy).
	if hi/lo > 3.5 {
		t.Errorf("model/simulator ratio drifts: [%.2f, %.2f] (spread %.2fx)", lo, hi, hi/lo)
	}
	// And the model is never absurdly off.
	if lo < 0.3 || hi > 10 {
		t.Errorf("ratios out of sane band: [%.2f, %.2f]", lo, hi)
	}
}
