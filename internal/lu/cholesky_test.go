package lu

import (
	"math"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func mathSqrt(x float64) float64 { return math.Sqrt(x) }

func TestSerialCholeskyReconstructs(t *testing.T) {
	for _, tc := range []struct{ n, bs int }{
		{4, 2}, {8, 4}, {16, 4}, {20, 8}, {15, 4},
	} {
		a := matrix.RandomSPD(tc.n, int64(tc.n))
		l, err := SerialCholesky(a, tc.bs)
		if err != nil {
			t.Fatalf("n=%d bs=%d: %v", tc.n, tc.bs, err)
		}
		recon := matrix.Mul(l, l.Transpose())
		if d := recon.MaxAbsDiff(a); d > 1e-8*float64(tc.n)*float64(tc.n) {
			t.Errorf("n=%d bs=%d: ||LLᵀ − A|| = %g", tc.n, tc.bs, d)
		}
		// L is lower triangular.
		for i := 0; i < tc.n; i++ {
			for j := i + 1; j < tc.n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("L not lower at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestSerialCholeskyMatchesUnblocked(t *testing.T) {
	n := 16
	a := matrix.RandomSPD(n, 7)
	blocked, err := SerialCholesky(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Clone()
	if err := matrix.CholeskyInPlace(w); err != nil {
		t.Fatal(err)
	}
	unblocked := w.LowerTriangle()
	if d := blocked.MaxAbsDiff(unblocked); d > 1e-9*float64(n) {
		t.Errorf("blocked vs unblocked diff %g", d)
	}
}

func TestSerialCholeskyRejectsIndefinite(t *testing.T) {
	a := matrix.Identity(4)
	a.Set(2, 2, -1)
	if _, err := SerialCholesky(a, 2); err == nil {
		t.Error("indefinite matrix should be rejected")
	}
	if _, err := SerialCholesky(matrix.New(3, 4), 2); err == nil {
		t.Error("non-square should be rejected")
	}
}

func TestDistributedCholeskyMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q int }{
		{4, 1}, {8, 2}, {12, 3}, {16, 4}, {24, 4},
	} {
		a := matrix.RandomSPD(tc.n, int64(tc.n)+3)
		res, err := Cholesky(zeroCost, tc.q, a)
		if err != nil {
			t.Fatalf("n=%d q=%d: %v", tc.n, tc.q, err)
		}
		want, err := SerialCholesky(a, 4)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.L.MaxAbsDiff(want); d > 1e-8*float64(tc.n)*float64(tc.n) {
			t.Errorf("n=%d q=%d: L diff %g", tc.n, tc.q, d)
		}
		// U is Lᵀ by construction; the reconstruction closes the loop.
		recon := matrix.Mul(res.L, res.U)
		if d := recon.MaxAbsDiff(a); d > 1e-8*float64(tc.n)*float64(tc.n) {
			t.Errorf("n=%d q=%d: ||LLᵀ − A|| = %g", tc.n, tc.q, d)
		}
	}
}

func TestDistributedCholeskyValidation(t *testing.T) {
	a := matrix.RandomSPD(8, 1)
	if _, err := Cholesky(zeroCost, 3, a); err == nil {
		t.Error("8 % 3 != 0 should be rejected")
	}
	if _, err := Cholesky(zeroCost, 2, matrix.New(3, 4)); err == nil {
		t.Error("non-square should be rejected")
	}
	indef := matrix.Identity(8)
	indef.Set(5, 5, -2)
	if _, err := Cholesky(zeroCost, 2, indef); err == nil {
		t.Error("indefinite matrix should be rejected")
	}
}

func TestCholeskyHalfTheFlopsOfLU(t *testing.T) {
	const n, q = 24, 4
	spd := matrix.RandomSPD(n, 5)
	chol, err := Cholesky(zeroCost, q, spd)
	if err != nil {
		t.Fatal(err)
	}
	dd := matrix.RandomDiagDominant(n, 5)
	lures, err := Stacked(zeroCost, q, 1, dd)
	if err != nil {
		t.Fatal(err)
	}
	cf := chol.Sim.TotalStats().Flops
	lf := lures.Sim.TotalStats().Flops
	ratio := cf / lf
	if ratio < 0.35 || ratio > 0.8 {
		t.Errorf("Cholesky/LU flop ratio %g, want ≈0.5", ratio)
	}
}

func TestCholeskyLatencyCriticalPath(t *testing.T) {
	// Same story as LU: the latency-only critical path grows with q.
	cost := sim.Cost{AlphaT: 1}
	a := matrix.RandomSPD(24, 9)
	r2, err := Cholesky(cost, 2, a)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Cholesky(cost, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Sim.Time() <= r2.Sim.Time() {
		t.Errorf("Cholesky critical path should grow with q: %g -> %g",
			r2.Sim.Time(), r4.Sim.Time())
	}
}

func TestCholeskySolve(t *testing.T) {
	// End to end: factor SPD system distributed, then solve.
	n := 16
	a := matrix.RandomSPD(n, 11)
	res, err := Cholesky(zeroCost, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	xWant := matrix.Random(n, 2, 12)
	b := matrix.Mul(a, xWant)
	// A = L·Lᵀ: solve L·y = b then Lᵀ·x = y. Reuse Solve with L having a
	// non-unit diagonal — scale into unit-lower plus upper forms instead:
	// Solve() expects unit-lower L and upper U, so feed (L·D⁻¹, D·Lᵀ) where
	// D = diag(L).
	lUnit := res.L.Clone()
	u := res.U.Clone()
	for i := 0; i < n; i++ {
		d := res.L.At(i, i)
		for r := 0; r < n; r++ {
			lUnit.Set(r, i, lUnit.At(r, i)/d)
		}
		for c := 0; c < n; c++ {
			u.Set(i, c, u.At(i, c)*d)
		}
	}
	x, err := Solve(lUnit, u, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxAbsDiff(xWant); d > 1e-7*float64(n) {
		t.Errorf("SPD solve error %g", d)
	}
}

func TestLDLTReconstructs(t *testing.T) {
	for _, n := range []int{1, 4, 12} {
		a := matrix.RandomSPD(n, int64(n)+70)
		l, d, err := LDLT(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct L·D·Lᵀ.
		ld := l.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				ld.Set(i, j, ld.At(i, j)*d[j])
			}
		}
		recon := matrix.Mul(ld, l.Transpose())
		if diff := recon.MaxAbsDiff(a); diff > 1e-8*float64(n)*float64(n) {
			t.Errorf("n=%d: ‖LDLᵀ − A‖ = %g", n, diff)
		}
	}
}

func TestLDLTIndefinite(t *testing.T) {
	// LDLᵀ handles symmetric indefinite matrices Cholesky rejects, as long
	// as the leading minors stay nonzero: diag(1, -1) works.
	a := matrix.Identity(2)
	a.Set(1, 1, -1)
	l, d, err := LDLT(a)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 1 || d[1] != -1 {
		t.Errorf("D = %v, want [1 -1]", d)
	}
	if l.At(1, 0) != 0 {
		t.Error("L should be identity here")
	}
	if _, err := SerialCholesky(a, 2); err == nil {
		t.Error("Cholesky should reject the same matrix")
	}
}

func TestLDLTMatchesCholeskyOnSPD(t *testing.T) {
	// On SPD input: L_chol = L_ldlt · sqrt(D).
	n := 8
	a := matrix.RandomSPD(n, 71)
	lc, err := SerialCholesky(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, d, err := LDLT(a)
	if err != nil {
		t.Fatal(err)
	}
	scaled := l.Clone()
	for j := 0; j < n; j++ {
		s := mathSqrt(d[j])
		for i := 0; i < n; i++ {
			scaled.Set(i, j, scaled.At(i, j)*s)
		}
	}
	if diff := scaled.MaxAbsDiff(lc); diff > 1e-9*float64(n) {
		t.Errorf("L·√D vs Cholesky L: %g", diff)
	}
}

func TestLDLTErrors(t *testing.T) {
	if _, _, err := LDLT(matrix.New(2, 3)); err == nil {
		t.Error("non-square should be rejected")
	}
	if _, _, err := LDLT(matrix.New(3, 3)); err == nil {
		t.Error("zero matrix should report a zero pivot")
	}
}
