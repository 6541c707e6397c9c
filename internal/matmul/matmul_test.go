package matmul

import (
	"math"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

var zeroCost = sim.Cost{}

// tol scales the comparison threshold with problem size.
func tol(n int) float64 { return 1e-10 * float64(n) }

func randPair(n int, seed int64) (*matrix.Dense, *matrix.Dense) {
	return matrix.Random(n, n, seed), matrix.Random(n, n, seed+1000)
}

// TestCannonMatchesSerial: TwoPointFiveD at c = 1 is 2D Cannon.
func TestCannonMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q int }{
		{4, 1}, {8, 2}, {12, 3}, {16, 4}, {24, 4}, {30, 5},
	} {
		a, b := randPair(tc.n, int64(tc.n))
		want := Serial(a, b)
		got, err := TwoPointFiveD(zeroCost, tc.q, 1, a, b)
		if err != nil {
			t.Fatalf("n=%d q=%d: %v", tc.n, tc.q, err)
		}
		if d := got.C.MaxAbsDiff(want); d > tol(tc.n) {
			t.Errorf("n=%d q=%d: max diff %g", tc.n, tc.q, d)
		}
	}
}

// TestSUMMAMatchesSerial: TwoPointFiveDSUMMA at c = 1 is 2D SUMMA.
func TestSUMMAMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q int }{
		{4, 1}, {8, 2}, {12, 3}, {16, 4}, {30, 5},
	} {
		a, b := randPair(tc.n, int64(tc.n)+7)
		want := Serial(a, b)
		got, err := TwoPointFiveDSUMMA(zeroCost, tc.q, 1, a, b)
		if err != nil {
			t.Fatalf("n=%d q=%d: %v", tc.n, tc.q, err)
		}
		if d := got.C.MaxAbsDiff(want); d > tol(tc.n) {
			t.Errorf("n=%d q=%d: max diff %g", tc.n, tc.q, d)
		}
	}
}

func TestTwoPointFiveDMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q, c int }{
		{8, 2, 1},  // Cannon special case
		{8, 2, 2},  // 3D special case (p = 8)
		{16, 4, 2}, // true 2.5D (p = 32)
		{16, 4, 4}, // 3D via 2.5D (p = 64)
		{24, 4, 2},
		{18, 6, 3}, // p = 108
	} {
		a, b := randPair(tc.n, int64(tc.n)+13)
		want := Serial(a, b)
		got, err := TwoPointFiveD(zeroCost, tc.q, tc.c, a, b)
		if err != nil {
			t.Fatalf("n=%d q=%d c=%d: %v", tc.n, tc.q, tc.c, err)
		}
		if d := got.C.MaxAbsDiff(want); d > tol(tc.n) {
			t.Errorf("n=%d q=%d c=%d: max diff %g", tc.n, tc.q, tc.c, d)
		}
	}
}

func TestThreeDMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q int }{
		{4, 1}, {8, 2}, {12, 3}, {16, 4},
	} {
		a, b := randPair(tc.n, int64(tc.n)+29)
		want := Serial(a, b)
		got, err := ThreeD(zeroCost, tc.q, a, b)
		if err != nil {
			t.Fatalf("n=%d q=%d: %v", tc.n, tc.q, err)
		}
		if d := got.C.MaxAbsDiff(want); d > tol(tc.n) {
			t.Errorf("n=%d q=%d: max diff %g", tc.n, tc.q, d)
		}
	}
}

func TestInputValidation(t *testing.T) {
	a, b := randPair(8, 1)
	if _, err := TwoPointFiveD(zeroCost, 3, 1, a, b); err == nil {
		t.Error("8 % 3 != 0 should be rejected")
	}
	if _, err := TwoPointFiveD(zeroCost, 4, 3, a, b); err == nil {
		t.Error("c=3 not dividing q=4 should be rejected")
	}
	if _, err := TwoPointFiveD(zeroCost, 4, 0, a, b); err == nil {
		t.Error("c=0 should be rejected")
	}
	rect := matrix.New(4, 6)
	if _, err := TwoPointFiveD(zeroCost, 2, 1, rect, rect); err == nil {
		t.Error("rectangular operands should be rejected")
	}
	if _, err := TwoPointFiveDSUMMA(zeroCost, 2, 1, matrix.New(4, 4), matrix.New(6, 6)); err == nil {
		t.Error("mismatched operands should be rejected")
	}
}

func TestFlopCountsBalanced(t *testing.T) {
	// Every algorithm performs exactly 2n³ flops in total, evenly split.
	const n, q = 16, 4
	a, b := randPair(n, 3)
	want := 2.0 * n * n * n

	cannon, err := TwoPointFiveD(zeroCost, q, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := cannon.Sim.TotalStats().Flops; got != want {
		t.Errorf("Cannon total flops: got %g want %g", got, want)
	}
	perRank := want / (q * q)
	for id, s := range cannon.Sim.PerRank {
		if s.Flops != perRank {
			t.Errorf("Cannon rank %d flops %g, want %g", id, s.Flops, perRank)
		}
	}

	td, err := TwoPointFiveD(zeroCost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The fiber reduction's additions are real, counted flops, so the 2.5D
	// total slightly exceeds 2n³ — but by no more than one block sum per
	// rank.
	got := td.Sim.TotalStats().Flops
	nb := n / 4
	if got < want || got > want+float64(32*nb*nb) {
		t.Errorf("2.5D total flops: got %g want within [%g, %g]", got, want, want+float64(32*nb*nb))
	}
}

func TestCannonCommunicationScaling(t *testing.T) {
	// Doubling the grid (4x ranks) should roughly halve per-rank words for
	// fixed n: W = Θ(n²/√p).
	const n = 32
	a, b := randPair(n, 5)
	w := map[int]float64{}
	for _, q := range []int{2, 4} {
		res, err := TwoPointFiveD(zeroCost, q, 1, a, b)
		if err != nil {
			t.Fatal(err)
		}
		w[q] = res.Sim.MaxStats().WordsSent
	}
	ratio := w[2] / w[4]
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("W(q=2)/W(q=4) = %g, want ≈2", ratio)
	}
}

func TestTwoPointFiveDReplicationReducesWords(t *testing.T) {
	// At fixed p... not possible with our divisibility constraints; instead
	// verify the perfect-strong-scaling claim directly: scale p by c while
	// holding the per-rank block size (memory) fixed, and the per-rank
	// communication volume must not grow — the c layers split the work.
	const n = 24
	a, b := randPair(n, 9)
	// q=4, c=1: p=16, block 6x6.
	r1, err := TwoPointFiveD(zeroCost, 4, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Same block size (memory per rank), 2x and 4x the processors.
	r2, err := TwoPointFiveD(zeroCost, 4, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := TwoPointFiveD(zeroCost, 4, 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	w1 := r1.Sim.MaxStats().WordsSent
	w2 := r2.Sim.MaxStats().WordsSent
	w4 := r4.Sim.MaxStats().WordsSent
	if w2 >= w1 || w4 >= w1 {
		t.Errorf("per-rank words should shrink with replication: c=1:%g c=2:%g c=4:%g", w1, w2, w4)
	}
	// Memory per rank stays (3 blocks of the same size).
	m1 := r1.Sim.MaxStats().PeakMemWords
	m2 := r2.Sim.MaxStats().PeakMemWords
	if m1 != m2 {
		t.Errorf("per-rank memory should be constant: %g vs %g", m1, m2)
	}
}

func TestTwoPointFiveDPerfectStrongScalingTime(t *testing.T) {
	// Experiment E2 (simulator side): with realistic-ish costs, scaling
	// p -> c·p at fixed per-rank memory should cut simulated time by ≈c.
	cost := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}
	const n = 96
	a, b := randPair(n, 11)
	t1, err := TwoPointFiveD(cost, 4, 1, a, b) // p=16
	if err != nil {
		t.Fatal(err)
	}
	t2, err := TwoPointFiveD(cost, 4, 2, a, b) // p=32, same block size
	if err != nil {
		t.Fatal(err)
	}
	t4, err := TwoPointFiveD(cost, 4, 4, a, b) // p=64
	if err != nil {
		t.Fatal(err)
	}
	s2 := t1.Sim.Time() / t2.Sim.Time()
	s4 := t1.Sim.Time() / t4.Sim.Time()
	// The model predicts exactly 2 and 4; the implementation pays the
	// replication and reduction constants the paper's big-O hides, so we
	// accept the shape with generous brackets.
	if s2 < 1.6 || s2 > 2.4 {
		t.Errorf("speedup at c=2: %g, want ≈2", s2)
	}
	if s4 < 2.3 || s4 > 4.6 {
		t.Errorf("speedup at c=4: %g, want ≈4", s4)
	}
}

func TestThreeDLowerCommThanCannon(t *testing.T) {
	// For the same n, 3D on p=q³ ranks moves fewer words per rank than
	// Cannon on p=q² ranks when memory allows — the Section III story.
	const n = 24
	a, b := randPair(n, 21)
	cn, err := TwoPointFiveD(zeroCost, 4, 1, a, b) // Cannon, p=16
	if err != nil {
		t.Fatal(err)
	}
	td, err := ThreeD(zeroCost, 4, a, b) // p=64
	if err != nil {
		t.Fatal(err)
	}
	wCannon := cn.Sim.MaxStats().WordsSent
	w3D := td.Sim.MaxStats().WordsSent
	if w3D >= wCannon {
		t.Errorf("3D per-rank words %g should be below Cannon %g", w3D, wCannon)
	}
}

func TestCannonDeterministicTimes(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-5}
	a, b := randPair(16, 2)
	r1, err := TwoPointFiveD(cost, 4, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := TwoPointFiveD(cost, 4, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sim.Time() != r2.Sim.Time() {
		t.Error("simulated time must be deterministic")
	}
	if math.Abs(r1.C.MaxAbsDiff(r2.C)) != 0 {
		t.Error("results must be bit-identical")
	}
}

func TestIdentityMultiplication(t *testing.T) {
	const n, q = 12, 3
	a := matrix.Random(n, n, 31)
	id := matrix.Identity(n)
	res, err := TwoPointFiveD(zeroCost, q, 1, a, id)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.C.MaxAbsDiff(a); d > 1e-12 {
		t.Errorf("A·I: max diff %g", d)
	}
	res, err = TwoPointFiveD(zeroCost, 2, 2, id, a)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.C.MaxAbsDiff(a); d > 1e-12 {
		t.Errorf("I·A: max diff %g", d)
	}
}

// TestSUMMAAndCannonAgree: at c = 1 the two 2.5D variants are 2D Cannon and
// 2D SUMMA, and they compute the same product.
func TestSUMMAAndCannonAgree(t *testing.T) {
	const n, q = 20, 4
	a, b := randPair(n, 41)
	c1, err := TwoPointFiveD(zeroCost, q, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := TwoPointFiveDSUMMA(zeroCost, q, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := c1.C.MaxAbsDiff(c2.C); d > 1e-11 {
		t.Errorf("Cannon vs SUMMA diff %g", d)
	}
}

func TestTwoPointFiveDSUMMAMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, q, c int }{
		{8, 2, 1}, {8, 2, 2}, {16, 4, 2}, {16, 4, 4}, {24, 4, 2},
	} {
		a, b := randPair(tc.n, int64(tc.n)+71)
		want := Serial(a, b)
		got, err := TwoPointFiveDSUMMA(zeroCost, tc.q, tc.c, a, b)
		if err != nil {
			t.Fatalf("n=%d q=%d c=%d: %v", tc.n, tc.q, tc.c, err)
		}
		if d := got.C.MaxAbsDiff(want); d > tol(tc.n) {
			t.Errorf("n=%d q=%d c=%d: max diff %g", tc.n, tc.q, tc.c, d)
		}
	}
}

func TestTwoPointFiveDVariantsAgree(t *testing.T) {
	const n, q, c = 24, 4, 2
	a, b := randPair(n, 73)
	cannon, err := TwoPointFiveD(zeroCost, q, c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	summa, err := TwoPointFiveDSUMMA(zeroCost, q, c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := cannon.C.MaxAbsDiff(summa.C); d > 1e-11*n {
		t.Errorf("Cannon-based and SUMMA-based 2.5D disagree by %g", d)
	}
	// Same flop totals modulo the fiber reduction.
	fc := cannon.Sim.TotalStats().Flops
	fs := summa.Sim.TotalStats().Flops
	if fc != fs {
		t.Errorf("flop totals differ: %g vs %g", fc, fs)
	}
}

func TestTwoPointFiveDSUMMAScaling(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}
	const n = 96
	a, b := randPair(n, 79)
	t1, err := TwoPointFiveDSUMMA(cost, 4, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := TwoPointFiveDSUMMA(cost, 4, 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := t1.Sim.Time() / t4.Sim.Time()
	if s < 2.0 || s > 4.6 {
		t.Errorf("SUMMA-based 2.5D speedup at c=4: %g, want ≈4", s)
	}
}
