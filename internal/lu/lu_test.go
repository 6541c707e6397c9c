package lu

import (
	"fmt"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

var zeroCost = sim.Cost{}

// residual returns ||L·U − A||_max.
func residual(l, u, a *matrix.Dense) float64 {
	return matrix.Mul(l, u).MaxAbsDiff(a)
}

func TestSerialBlockedMatchesUnblocked(t *testing.T) {
	for _, tc := range []struct{ n, bs int }{
		{8, 4}, {16, 4}, {20, 8}, {32, 32}, {33, 8}, {7, 3},
	} {
		a := matrix.RandomDiagDominant(tc.n, int64(tc.n))
		l, u, err := serialBlocked(a, tc.bs)
		if err != nil {
			t.Fatalf("n=%d bs=%d: %v", tc.n, tc.bs, err)
		}
		if d := residual(l, u, a); d > 1e-9*float64(tc.n) {
			t.Errorf("n=%d bs=%d: residual %g", tc.n, tc.bs, d)
		}
		// Cross-check against the unblocked kernel.
		w := a.Clone()
		if err := matrix.LUInPlace(w); err != nil {
			t.Fatal(err)
		}
		l2, u2 := matrix.SplitLU(w)
		if d := l.MaxAbsDiff(l2); d > 1e-9*float64(tc.n) {
			t.Errorf("n=%d: blocked L differs from unblocked by %g", tc.n, d)
		}
		if d := u.MaxAbsDiff(u2); d > 1e-9*float64(tc.n) {
			t.Errorf("n=%d: blocked U differs from unblocked by %g", tc.n, d)
		}
	}
}

func TestSerialBlockedRejectsNonSquare(t *testing.T) {
	if _, _, err := serialBlocked(matrix.New(3, 4), 2); err == nil {
		t.Error("non-square should be rejected")
	}
}

func TestSerialBlockedSingular(t *testing.T) {
	if _, _, err := serialBlocked(matrix.New(4, 4), 2); err == nil {
		t.Error("zero matrix should report a zero pivot")
	}
}

func TestStackedOneLayerMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q int }{
		{4, 1}, {8, 2}, {12, 3}, {16, 4}, {24, 4},
	} {
		a := matrix.RandomDiagDominant(tc.n, int64(tc.n)+5)
		res, err := Stacked(zeroCost, tc.q, 1, a)
		if err != nil {
			t.Fatalf("n=%d q=%d: %v", tc.n, tc.q, err)
		}
		if d := residual(res.L, res.U, a); d > 1e-8*float64(tc.n) {
			t.Errorf("n=%d q=%d: residual %g", tc.n, tc.q, d)
		}
		// L unit-lower, U upper.
		for i := 0; i < tc.n; i++ {
			if res.L.At(i, i) != 1 {
				t.Fatalf("L diagonal not unit at %d", i)
			}
			for j := i + 1; j < tc.n; j++ {
				if res.L.At(i, j) != 0 {
					t.Fatalf("L not lower triangular at (%d,%d)", i, j)
				}
			}
			for j := 0; j < i; j++ {
				if res.U.At(i, j) != 0 {
					t.Fatalf("U not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestStackedMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q, c int }{
		{8, 2, 2},
		{16, 4, 2},
		{16, 4, 4},
		{24, 6, 3},
	} {
		a := matrix.RandomDiagDominant(tc.n, int64(tc.n)+9)
		res, err := Stacked(zeroCost, tc.q, tc.c, a)
		if err != nil {
			t.Fatalf("n=%d q=%d c=%d: %v", tc.n, tc.q, tc.c, err)
		}
		if d := residual(res.L, res.U, a); d > 1e-8*float64(tc.n) {
			t.Errorf("n=%d q=%d c=%d: residual %g", tc.n, tc.q, tc.c, d)
		}
	}
}

func TestStackedValidation(t *testing.T) {
	a := matrix.RandomDiagDominant(8, 1)
	if _, err := Stacked(zeroCost, 3, 1, a); err == nil {
		t.Error("8 % 3 != 0 should be rejected")
	}
	if _, err := Stacked(zeroCost, 2, 3, a); err == nil {
		t.Error("c > q should be rejected")
	}
	if _, err := Stacked(zeroCost, 2, 0, a); err == nil {
		t.Error("c = 0 should be rejected")
	}
	if _, err := Stacked(zeroCost, 2, 1, matrix.New(3, 4)); err == nil {
		t.Error("non-square should be rejected")
	}
}

func TestStackedReducesBandwidth(t *testing.T) {
	// Same q (same block size): the broadcast traffic of each step stays on
	// one layer while the rank count grows by c, so the *average* per-rank
	// word volume falls with c — the W = O(n²/√(cp)) behaviour. (The
	// busiest single rank is a broadcast root whose tree fan-out cost does
	// not shrink, so the max is not the right metric here.)
	const n = 32
	a := matrix.RandomDiagDominant(n, 3)
	words := map[int]float64{}
	for _, c := range []int{1, 2, 4} {
		res, err := Stacked(zeroCost, 4, c, a)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		words[c] = res.Sim.TotalStats().WordsSent / float64(16*c)
	}
	if !(words[2] < words[1]) || !(words[4] < words[2]) {
		t.Errorf("average per-rank words should fall with c: %v", words)
	}
}

func TestLatencyDoesNotScaleWithC(t *testing.T) {
	// Section IV's LU claim: the critical path has q sequential steps of
	// broadcasts no matter how much memory is thrown at the problem. With a
	// latency-only cost model, the simulated time must NOT improve by more
	// than a small constant as c grows.
	const n = 32
	a := matrix.RandomDiagDominant(n, 7)
	cost := sim.Cost{AlphaT: 1} // pure latency
	times := map[int]float64{}
	for _, c := range []int{1, 2, 4} {
		res, err := Stacked(cost, 4, c, a)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		times[c] = res.Sim.Time()
	}
	if times[4] < times[1]/2 {
		t.Errorf("latency-dominated LU should not strong-scale with c: %v", times)
	}
}

func TestLatencyGrowsWithGrid(t *testing.T) {
	// More processors (larger q) lengthen the critical path in messages.
	cost := sim.Cost{AlphaT: 1}
	const n = 24
	a := matrix.RandomDiagDominant(n, 11)
	r2, err := Stacked(cost, 2, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Stacked(cost, 4, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Sim.Time() <= r2.Sim.Time() {
		t.Errorf("latency critical path should grow with q: q=2 %g vs q=4 %g",
			r2.Sim.Time(), r4.Sim.Time())
	}
}

func TestFlopsSplitAcrossLayers(t *testing.T) {
	// The busiest rank's flops should drop as c grows (updates split).
	const n = 48
	a := matrix.RandomDiagDominant(n, 13)
	flops := map[int]float64{}
	for _, c := range []int{1, 2} {
		res, err := Stacked(zeroCost, 4, c, a)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		flops[c] = res.Sim.MaxStats().Flops
	}
	if flops[2] >= flops[1] {
		t.Errorf("per-rank flops should fall with c: %v", flops)
	}
}

func TestStackedOneLayerDeterministic(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	a := matrix.RandomDiagDominant(16, 17)
	r1, err := Stacked(cost, 4, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Stacked(cost, 4, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sim.Time() != r2.Sim.Time() {
		t.Error("simulated time must be deterministic")
	}
	if r1.L.MaxAbsDiff(r2.L) != 0 || r1.U.MaxAbsDiff(r2.U) != 0 {
		t.Error("factors must be bit-identical")
	}
}

// serialBlocked factors a copy of A with a right-looking blocked algorithm
// of panel width bs, returning unit-lower L and upper U. It is the
// verification baseline for the distributed algorithms (matrix.LUInPlace is
// its own unblocked baseline).
func serialBlocked(a *matrix.Dense, bs int) (l, u *matrix.Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("lu: non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if bs < 1 {
		bs = 32
	}
	w := a.Clone()
	for k0 := 0; k0 < n; k0 += bs {
		kb := min(bs, n-k0)
		// Factor the diagonal panel.
		diag := w.Block(k0, k0, kb, kb)
		if err := matrix.LUInPlace(diag); err != nil {
			return nil, nil, fmt.Errorf("lu: panel at %d: %w", k0, err)
		}
		w.SetBlock(k0, k0, diag)
		lkk, ukk := matrix.SplitLU(diag)
		rest := n - k0 - kb
		if rest > 0 {
			// L21 = A21·U11⁻¹ and U12 = L11⁻¹·A12.
			l21 := w.Block(k0+kb, k0, rest, kb)
			matrix.TriSolveUpperRight(ukk, l21)
			w.SetBlock(k0+kb, k0, l21)
			u12 := w.Block(k0, k0+kb, kb, rest)
			matrix.TriSolveLowerUnit(lkk, u12)
			w.SetBlock(k0, k0+kb, u12)
			// Trailing update A22 −= L21·U12.
			a22 := w.Block(k0+kb, k0+kb, rest, rest)
			prod := matrix.Mul(l21, u12)
			a22.Sub(prod)
			w.SetBlock(k0+kb, k0+kb, a22)
		}
	}
	l, u = matrix.SplitLU(w)
	return l, u, nil
}
