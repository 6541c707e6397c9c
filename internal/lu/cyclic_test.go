package lu

import (
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func TestTwoDCyclicMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q, nb int }{
		{16, 2, 4}, // 4x4 blocks on 2x2
		{24, 2, 4}, // 6x6 blocks
		{32, 4, 4}, // 8x8 blocks on 4x4
		{24, 3, 4}, // 6x6 blocks on 3x3
		{16, 2, 8}, // 2x2 blocks, minimum
		{36, 2, 6},
	} {
		a := matrix.RandomDiagDominant(tc.n, int64(tc.n+tc.q+tc.nb))
		res, err := TwoDCyclic(zeroCost, tc.q, tc.nb, a)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if d := residual(res.L, res.U, a); d > 1e-8*float64(tc.n) {
			t.Errorf("%+v: residual %g", tc, d)
		}
		// Agrees with the unblocked kernel.
		w := a.Clone()
		if err := matrix.LUInPlace(w); err != nil {
			t.Fatal(err)
		}
		l2, u2 := matrix.SplitLU(w)
		if d := res.L.MaxAbsDiff(l2); d > 1e-8*float64(tc.n) {
			t.Errorf("%+v: L differs from unblocked by %g", tc, d)
		}
		if d := res.U.MaxAbsDiff(u2); d > 1e-8*float64(tc.n) {
			t.Errorf("%+v: U differs from unblocked by %g", tc, d)
		}
	}
}

func TestTwoDCyclicValidation(t *testing.T) {
	a := matrix.RandomDiagDominant(16, 1)
	if _, err := TwoDCyclic(zeroCost, 2, 5, a); err == nil {
		t.Error("non-dividing block size should be rejected")
	}
	if _, err := TwoDCyclic(zeroCost, 4, 8, a); err == nil {
		t.Error("fewer blocks than grid rows should be rejected")
	}
	if _, err := TwoDCyclic(zeroCost, 2, 4, matrix.New(3, 4)); err == nil {
		t.Error("non-square should be rejected")
	}
	if _, err := TwoDCyclic(zeroCost, 2, 8, matrix.New(16, 16)); err == nil {
		t.Error("singular matrix should report a pivot failure")
	}
}

func TestCyclicBalancesFlops(t *testing.T) {
	// The point of the cyclic layout: the busiest rank's flops approach the
	// average, whereas the plain block layout concentrates the late-stage
	// work on the high-index ranks.
	const n, q = 64, 2
	a := matrix.RandomDiagDominant(n, 31)
	cyc, err := TwoDCyclic(zeroCost, q, 8, a)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := Stacked(zeroCost, q, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	imbalance := func(res *Result) float64 {
		return res.Sim.MaxStats().Flops * float64(q*q) / res.Sim.TotalStats().Flops
	}
	ic, ib := imbalance(cyc), imbalance(blk)
	if ic >= ib {
		t.Errorf("cyclic imbalance %.3f should beat block imbalance %.3f", ic, ib)
	}
	if ic > 1.5 {
		t.Errorf("cyclic layout should be near-balanced, got %.3f", ic)
	}
}

func TestCyclicSmallerBlocksBalanceBetter(t *testing.T) {
	const n, q = 64, 2
	a := matrix.RandomDiagDominant(n, 33)
	imb := map[int]float64{}
	for _, nb := range []int{4, 16} {
		res, err := TwoDCyclic(zeroCost, q, nb, a)
		if err != nil {
			t.Fatal(err)
		}
		imb[nb] = res.Sim.MaxStats().Flops * float64(q*q) / res.Sim.TotalStats().Flops
	}
	if imb[4] > imb[16] {
		t.Errorf("finer blocks should balance at least as well: nb=4 %.3f vs nb=16 %.3f", imb[4], imb[16])
	}
}

func TestCyclicLatencyGrowsWithBlockCount(t *testing.T) {
	// Finer blocks lengthen the critical path: the classic granularity
	// tradeoff the 2.5D LU latency bound formalizes.
	const n, q = 32, 2
	a := matrix.RandomDiagDominant(n, 35)
	lat := sim.Cost{AlphaT: 1}
	coarse, err := TwoDCyclic(lat, q, 16, a)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := TwoDCyclic(lat, q, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Sim.Time() <= coarse.Sim.Time() {
		t.Errorf("finer blocks should pay more latency: %g vs %g",
			fine.Sim.Time(), coarse.Sim.Time())
	}
}

func TestCyclicSolveEndToEnd(t *testing.T) {
	const n = 24
	a := matrix.RandomDiagDominant(n, 37)
	res, err := TwoDCyclic(zeroCost, 2, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Random(n, 2, 38)
	b := matrix.Mul(a, want)
	x, err := solve(res.L, res.U, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxAbsDiff(want); d > 1e-8*float64(n) {
		t.Errorf("solve error %g", d)
	}
}
