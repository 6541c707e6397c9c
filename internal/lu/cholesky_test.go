package lu

import (
	"fmt"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func TestSerialCholeskyReconstructs(t *testing.T) {
	for _, tc := range []struct{ n, bs int }{
		{4, 2}, {8, 4}, {16, 4}, {20, 8}, {15, 4},
	} {
		a := matrix.RandomSPD(tc.n, int64(tc.n))
		l, err := serialCholesky(a, tc.bs)
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
	blocked, err := serialCholesky(a, 4)
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
	if _, err := serialCholesky(a, 2); err == nil {
		t.Error("indefinite matrix should be rejected")
	}
	if _, err := serialCholesky(matrix.New(3, 4), 2); err == nil {
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
		want, err := serialCholesky(a, 4)
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
	// A = L·Lᵀ: solve L·y = b then Lᵀ·x = y. Reuse solve with L having a
	// non-unit diagonal — scale into unit-lower plus upper forms instead:
	// solve expects unit-lower L and upper U, so feed (L·D⁻¹, D·Lᵀ) where
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
	x, err := solve(lUnit, u, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxAbsDiff(xWant); d > 1e-7*float64(n) {
		t.Errorf("SPD solve error %g", d)
	}
}

// serialCholesky factors a symmetric positive-definite A into L·Lᵀ with a
// right-looking blocked algorithm of panel width bs.
func serialCholesky(a *matrix.Dense, bs int) (*matrix.Dense, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("lu: non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if bs < 1 {
		bs = 32
	}
	w := a.Clone()
	for k0 := 0; k0 < n; k0 += bs {
		kb := min(bs, n-k0)
		diag := w.Block(k0, k0, kb, kb)
		if err := matrix.CholeskyInPlace(diag); err != nil {
			return nil, fmt.Errorf("lu: cholesky panel at %d: %w", k0, err)
		}
		w.SetBlock(k0, k0, diag)
		lkk := diag.LowerTriangle()
		rest := n - k0 - kb
		if rest > 0 {
			// L21 = A21·L11⁻ᵀ: solve X·L11ᵀ = A21 (L11ᵀ is upper).
			l21 := w.Block(k0+kb, k0, rest, kb)
			matrix.TriSolveUpperRight(lkk.Transpose(), l21)
			w.SetBlock(k0+kb, k0, l21)
			// Trailing update A22 −= L21·L21ᵀ (full block for simplicity;
			// only the lower triangle is read afterwards).
			a22 := w.Block(k0+kb, k0+kb, rest, rest)
			a22.Sub(matrix.Mul(l21, l21.Transpose()))
			w.SetBlock(k0+kb, k0+kb, a22)
		}
	}
	return w.LowerTriangle(), nil
}
