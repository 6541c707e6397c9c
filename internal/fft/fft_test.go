package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"perfscale/internal/sim"
)

var zeroCost = sim.Cost{}

func TestSerialMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := RandomSignal(n, int64(n))
		want := dft(x)
		got := Serial(x)
		if d := MaxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestSerialKnownValues(t *testing.T) {
	// FFT of a constant signal: delta at k=0 scaled by n.
	x := []complex128{1, 1, 1, 1}
	y := Serial(x)
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Errorf("y[0] = %v, want 4", y[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(y[k]) > 1e-12 {
			t.Errorf("y[%d] = %v, want 0", k, y[k])
		}
	}
	// FFT of a delta: all-ones spectrum.
	x = []complex128{1, 0, 0, 0}
	y = Serial(x)
	for k := 0; k < 4; k++ {
		if cmplx.Abs(y[k]-1) > 1e-12 {
			t.Errorf("delta: y[%d] = %v, want 1", k, y[k])
		}
	}
}

func TestSerialParseval(t *testing.T) {
	// Σ|x|² = (1/n)·Σ|y|².
	n := 128
	x := RandomSignal(n, 5)
	y := Serial(x)
	var ex, ey float64
	for i := range x {
		ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	if math.Abs(ex-ey/float64(n)) > 1e-8*ex {
		t.Errorf("Parseval violated: %g vs %g", ex, ey/float64(n))
	}
}

func TestSerialPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=3 should panic")
		}
	}()
	Serial(make([]complex128, 3))
}

func TestSerialEmpty(t *testing.T) {
	if got := Serial(nil); got != nil {
		t.Error("empty input should give nil")
	}
}

func TestFlopsSerial(t *testing.T) {
	if FlopsSerial(1) != 0 {
		t.Error("n=1 is free")
	}
	if got := FlopsSerial(8); got != 120 {
		t.Errorf("FlopsSerial(8) = %g, want 5·8·3 = 120", got)
	}
}

func TestFactor(t *testing.T) {
	n1, n2, err := factor(256, 4)
	if err != nil || n1 != 16 || n2 != 16 {
		t.Errorf("factor(256,4) = (%d,%d,%v)", n1, n2, err)
	}
	n1, n2, err = factor(512, 4)
	if err != nil || n1*n2 != 512 || n1%4 != 0 || n2%4 != 0 {
		t.Errorf("factor(512,4) = (%d,%d,%v)", n1, n2, err)
	}
	if _, _, err := factor(8, 4); err == nil {
		t.Error("n=8 p=4 (n < p²) should fail")
	}
	if _, _, err := factor(64, 3); err == nil {
		t.Error("non-power-of-two p should fail")
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		tree bool
	}{
		{16, 1, false},
		{16, 2, false},
		{64, 4, false},
		{64, 4, true},
		{256, 8, false},
		{256, 8, true},
		{256, 16, true},
		{512, 4, false},
	} {
		x := RandomSignal(tc.n, int64(tc.n+tc.p))
		want := Serial(x)
		got, err := Distributed(zeroCost, tc.p, x, tc.tree)
		if err != nil {
			t.Fatalf("n=%d p=%d tree=%v: %v", tc.n, tc.p, tc.tree, err)
		}
		if d := MaxAbsDiff(got.Y, want); d > 1e-7*float64(tc.n) {
			t.Errorf("n=%d p=%d tree=%v: max diff %g", tc.n, tc.p, tc.tree, d)
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	x := RandomSignal(24, 1)
	if _, err := Distributed(zeroCost, 2, x, false); err == nil {
		t.Error("non-power-of-two length should be rejected")
	}
	x = RandomSignal(8, 1)
	if _, err := Distributed(zeroCost, 4, x, false); err == nil {
		t.Error("n < p² should be rejected")
	}
	x = RandomSignal(64, 1)
	if _, err := Distributed(zeroCost, 3, x, false); err == nil {
		t.Error("non-power-of-two p should be rejected")
	}
}

func TestNaiveVsTreeCostTradeoff(t *testing.T) {
	// The experiment of Section IV: naive all-to-all sends p−1 messages and
	// n/p (complex) words; the tree variant sends log2 p messages and
	// (n/p)·log2(p)/2·... more words.
	const n, p = 1024, 16
	x := RandomSignal(n, 3)
	naive, err := Distributed(zeroCost, p, x, false)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Distributed(zeroCost, p, x, true)
	if err != nil {
		t.Fatal(err)
	}
	nm := naive.Sim.MaxStats().MsgsSent
	tm := tree.Sim.MaxStats().MsgsSent
	if nm != p-1 {
		t.Errorf("naive messages: got %g want %d", nm, p-1)
	}
	if tm != 4 {
		t.Errorf("tree messages: got %g want log2(16) = 4", tm)
	}
	nw := naive.Sim.MaxStats().WordsSent
	tw := tree.Sim.MaxStats().WordsSent
	if tw <= nw {
		t.Errorf("tree should move more words: %g vs %g", tw, nw)
	}
	// Naive words: (p−1)/p of the local 2·n/p float words.
	wantNaive := float64(2 * n / p * (p - 1) / p)
	if nw != wantNaive {
		t.Errorf("naive words: got %g want %g", nw, wantNaive)
	}
}

func TestLatencyCrossover(t *testing.T) {
	// With latency-dominated costs the tree wins; with bandwidth-dominated
	// costs the naive all-to-all wins. This is the αt/βt crossover the
	// model predicts.
	const n, p = 1024, 16
	x := RandomSignal(n, 7)
	latency := sim.Cost{AlphaT: 1, BetaT: 1e-9}
	band := sim.Cost{AlphaT: 1e-9, BetaT: 1}
	nl, err := Distributed(latency, p, x, false)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Distributed(latency, p, x, true)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Sim.Time() >= nl.Sim.Time() {
		t.Errorf("latency regime: tree %g should beat naive %g", tl.Sim.Time(), nl.Sim.Time())
	}
	nb, err := Distributed(band, p, x, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Distributed(band, p, x, true)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Sim.Time() >= tb.Sim.Time() {
		t.Errorf("bandwidth regime: naive %g should beat tree %g", nb.Sim.Time(), tb.Sim.Time())
	}
}

func TestDistributedFlopBalance(t *testing.T) {
	const n, p = 256, 4
	x := RandomSignal(n, 9)
	res, err := Distributed(zeroCost, p, x, false)
	if err != nil {
		t.Fatal(err)
	}
	// Total ≈ 2 passes of n-point FFT work + twiddles: within 2x of
	// 5n·log2(n).
	total := res.Sim.TotalStats().Flops
	model := FlopsSerial(n)
	if total < model || total > 2.5*model {
		t.Errorf("total flops %g outside [%g, %g]", total, model, 2.5*model)
	}
	maxF := res.Sim.MaxStats().Flops
	if maxF > 1.01*total/p {
		t.Errorf("flops imbalanced: max %g avg %g", maxF, total/p)
	}
}

func TestInverseSerialRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4, 64, 256} {
		x := RandomSignal(n, int64(n)+77)
		back := inverseSerial(Serial(x))
		if d := MaxAbsDiff(back, x); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip diff %g", n, d)
		}
	}
	if got := inverseSerial(nil); got != nil {
		t.Error("empty inverse should be nil")
	}
}

// dft computes the discrete Fourier transform directly in O(n²) — the
// verification oracle for everything else in this package.
func dft(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		y[k] = s
	}
	return y
}
