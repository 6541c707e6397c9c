package bounds

import (
	"math"
	"testing"
)

func approx(got, want, rel float64) bool {
	if want == 0 {
		return math.Abs(got) < rel
	}
	return math.Abs(got-want)/math.Abs(want) < rel
}

func TestSequentialWords(t *testing.T) {
	// Flop term dominates: F/√M = 1000/10 = 100 > I+O = 50.
	if got := SequentialWords(1000, 100, 50); got != 100 {
		t.Errorf("got %g want 100", got)
	}
	// I/O term dominates.
	if got := SequentialWords(1000, 100, 500); got != 500 {
		t.Errorf("got %g want 500", got)
	}
}

func TestClassicalMatMulCosts(t *testing.T) {
	n, p, mem, m := 1000.0, 8.0, 250000.0, 1000.0
	c := ClassicalMatMul(n, p, mem, m)
	if !approx(c.Flops, 1.25e8, 1e-12) {
		t.Errorf("F: got %g", c.Flops)
	}
	if !approx(c.Words, 1e9/(8*500), 1e-12) {
		t.Errorf("W: got %g", c.Words)
	}
	if !approx(c.Msgs, c.Words/m, 1e-12) {
		t.Errorf("S: got %g", c.Msgs)
	}
}

func TestMatMul25DReducesTo2DAnd3D(t *testing.T) {
	n, p := 1024.0, 64.0
	// c=1: W = n²/√p (2D / Cannon).
	c1 := MatMul25D(n, p, 1)
	if !approx(c1.Words, n*n/math.Sqrt(p), 1e-12) {
		t.Errorf("2D words: got %g", c1.Words)
	}
	if !approx(c1.Msgs, math.Sqrt(p), 1e-12) {
		t.Errorf("2D msgs: got %g", c1.Msgs)
	}
	// c=p^(1/3)=4: W = n²/p^(2/3) (3D).
	c3 := MatMul25D(n, p, 4)
	if !approx(c3.Words, n*n/math.Pow(p, 2.0/3.0), 1e-12) {
		t.Errorf("3D words: got %g", c3.Words)
	}
}

func TestMatMul25DPerfectScaling(t *testing.T) {
	// Scaling p -> c·p with replication c divides W and the √(p/c³) part of
	// S by c (the log c term is the paper's footnote 3 caveat).
	n, pmin := 4096.0, 16.0
	w1 := MatMul25D(n, pmin, 1)
	for _, c := range []float64{2, 4, 8} {
		wc := MatMul25D(n, c*pmin, c)
		if !approx(wc.Words, w1.Words/c, 1e-12) {
			t.Errorf("c=%g: W got %g want %g", c, wc.Words, w1.Words/c)
		}
	}
}

func TestFastMatMulMatchesClassicalAtOmega3(t *testing.T) {
	n, p, mem, m := 512.0, 8.0, 65536.0, 4096.0
	fast := FastMatMul(n, p, mem, m, 3)
	classical := ClassicalMatMul(n, p, mem, m)
	if !approx(fast.Flops, classical.Flops, 1e-12) || !approx(fast.Words, classical.Words, 1e-12) {
		t.Errorf("ω0=3 should equal classical: %+v vs %+v", fast, classical)
	}
}

func TestFastMatMulStrassenBeatsClassicalComm(t *testing.T) {
	// With ω0 < 3, Strassen moves fewer words for the same (n, p, M > 1).
	n, p, mem, m := 4096.0, 64.0, 262144.0, 4096.0
	fast := FastMatMul(n, p, mem, m, OmegaStrassen)
	classical := ClassicalMatMul(n, p, mem, m)
	if fast.Words >= classical.Words {
		t.Errorf("Strassen W %g should beat classical %g", fast.Words, classical.Words)
	}
	if fast.Flops >= classical.Flops {
		t.Errorf("Strassen F %g should beat classical %g", fast.Flops, classical.Flops)
	}
}

func TestLU25DLatencyDoesNotScale(t *testing.T) {
	n, mem := 8192.0, 1<<20
	pmin := MatMulPMin(n, float64(mem))
	base := LU25D(n, pmin, float64(mem))
	quad := LU25D(n, 4*pmin, float64(mem))
	// Bandwidth strong scales...
	if !approx(quad.Words, base.Words/4, 1e-12) {
		t.Errorf("LU bandwidth should scale: %g vs %g/4", quad.Words, base.Words)
	}
	// ...but latency grows: S = n²/W = √(cp)·const.
	if quad.Msgs <= base.Msgs {
		t.Errorf("LU latency should grow with p: %g vs %g", quad.Msgs, base.Msgs)
	}
	if !approx(quad.Msgs, 4*base.Msgs, 1e-12) {
		// S = n²/W and W fell by 4 => S rises by 4.
		t.Errorf("LU msgs: got %g want %g", quad.Msgs, 4*base.Msgs)
	}
}

func TestNBodyCosts(t *testing.T) {
	n, p, mem, m, f := 1e6, 100.0, 1e4, 1e3, 10.0
	c := NBody(n, p, mem, m, f)
	if !approx(c.Flops, f*n*n/p, 1e-12) {
		t.Errorf("F: got %g", c.Flops)
	}
	if !approx(c.Words, n*n/(p*mem), 1e-12) {
		t.Errorf("W: got %g", c.Words)
	}
	if !approx(c.Msgs, c.Words/m, 1e-12) {
		t.Errorf("S: got %g", c.Msgs)
	}
}

func TestNBodyPerfectScalingInW(t *testing.T) {
	// W = n²/(pM): doubling p at fixed M halves W (and F) — both scale.
	n, mem := 1e6, 1e4
	pmin := NBodyPMin(n, mem)
	base := NBody(n, pmin, mem, 1e3, 1)
	dbl := NBody(n, 2*pmin, mem, 1e3, 1)
	if !approx(dbl.Words, base.Words/2, 1e-12) || !approx(dbl.Flops, base.Flops/2, 1e-12) {
		t.Errorf("n-body W/F should halve: %+v vs %+v", dbl, base)
	}
}

func TestFFTCosts(t *testing.T) {
	n, p := 1024.0*1024, 64.0
	naive := FFTNaive(n, p)
	tree := FFTTree(n, p)
	if !approx(naive.Flops, n*20/p, 1e-12) { // log2(2^20)=20
		t.Errorf("FFT flops: got %g", naive.Flops)
	}
	if !approx(naive.Words, n/p, 1e-12) || naive.Msgs != p {
		t.Errorf("naive: %+v", naive)
	}
	if !approx(tree.Words, n*6/p, 1e-12) || !approx(tree.Msgs, 6, 1e-12) {
		t.Errorf("tree: %+v", tree)
	}
	// The tradeoff: tree sends fewer messages, more words.
	if tree.Msgs >= naive.Msgs || tree.Words <= naive.Words {
		t.Error("tree all-to-all should trade words for messages")
	}
}

func TestScalingRangeLimits(t *testing.T) {
	n, mem := 4096.0, 65536.0
	pmin := MatMulPMin(n, mem)
	pmax := MatMulPMax(n, mem)
	if !approx(pmin, 256, 1e-12) {
		t.Errorf("pmin: got %g want 256", pmin)
	}
	if !approx(pmax, 4096, 1e-12) { // n³/M^1.5 = 2^36/2^24
		t.Errorf("pmax: got %g want 4096", pmax)
	}
	// pmax = pmin^(3/2) when M = n²/pmin.
	if !approx(pmax, math.Pow(pmin, 1.5), 1e-12) {
		t.Errorf("pmax should equal pmin^1.5: %g vs %g", pmax, math.Pow(pmin, 1.5))
	}
	// Strassen's range ends earlier.
	fmax := FastMatMulPMax(n, mem, OmegaStrassen)
	if fmax >= pmax {
		t.Errorf("Strassen pmax %g should be below classical %g", fmax, pmax)
	}
	if fmax <= pmin {
		t.Errorf("Strassen pmax %g should exceed pmin %g", fmax, pmin)
	}
}

func TestInMatMulScalingRange(t *testing.T) {
	n := 4096.0
	mem := 65536.0
	pmin := MatMulPMin(n, mem)
	pmax := MatMulPMax(n, mem)
	for _, tc := range []struct {
		p    float64
		want bool
	}{
		{pmin, true},
		{pmin * 2, true},
		{pmax, true},
		{pmax * 1.01, false},
		{pmin * 0.99, false},
	} {
		if got := InMatMulScalingRange(n, tc.p, mem); got != tc.want {
			t.Errorf("p=%g: got %v want %v", tc.p, got, tc.want)
		}
	}
}

func TestInNBodyScalingRange(t *testing.T) {
	n := 1e6
	mem := 1e4
	pmin := NBodyPMin(n, mem) // 100
	pmax := NBodyPMax(n, mem) // 1e4
	if !InNBodyScalingRange(n, pmin, mem) || !InNBodyScalingRange(n, pmax, mem) {
		t.Error("range endpoints should be inside")
	}
	if InNBodyScalingRange(n, pmin/2, mem) || InNBodyScalingRange(n, pmax*2, mem) {
		t.Error("outside points should be excluded")
	}
}

func TestWordsAnyMemoryContinuity(t *testing.T) {
	// The bounded and memory-independent expressions must meet at pmax.
	n, mem := 8192.0, 65536.0
	pmax := MatMulPMax(n, mem)
	inRange := n * n * n / (pmax * math.Sqrt(mem))
	indep := n * n / math.Pow(pmax, 2.0/3.0)
	if !approx(inRange, indep, 1e-9) {
		t.Errorf("classical curves should meet at pmax: %g vs %g", inRange, indep)
	}
	fpmax := FastMatMulPMax(n, mem, OmegaStrassen)
	inRangeF := math.Pow(n, OmegaStrassen) / (fpmax * math.Pow(mem, OmegaStrassen/2-1))
	indepF := n * n / math.Pow(fpmax, 2/OmegaStrassen)
	if !approx(inRangeF, indepF, 1e-9) {
		t.Errorf("Strassen curves should meet at pmax: %g vs %g", inRangeF, indepF)
	}
}

func TestFig3Series(t *testing.T) {
	n, mem := 8192.0, 65536.0
	pts := Fig3Series(n, mem, 200)
	if len(pts) != 200 {
		t.Fatalf("points: %d", len(pts))
	}
	pmin := MatMulPMin(n, mem)
	pmaxC := MatMulPMax(n, mem)
	pmaxS := FastMatMulPMax(n, mem, OmegaStrassen)
	if !approx(pts[0].P, pmin, 1e-9) {
		t.Errorf("series should start at pmin: %g vs %g", pts[0].P, pmin)
	}
	if pts[len(pts)-1].P < pmaxC {
		t.Error("series should extend beyond the classical saturation point")
	}
	flatC := pts[0].ClassicalWP
	flatS := pts[0].StrassenWP
	var prevC, prevS float64
	for i, pt := range pts {
		// Monotone non-decreasing W·p.
		if i > 0 && (pt.ClassicalWP < prevC*(1-1e-12) || pt.StrassenWP < prevS*(1-1e-12)) {
			t.Fatalf("W·p must be non-decreasing at %g", pt.P)
		}
		prevC, prevS = pt.ClassicalWP, pt.StrassenWP
		// Inside each scaling range, W·p stays at its pmin value (flat).
		if pt.P <= pmaxC && !approx(pt.ClassicalWP, flatC, 1e-9) {
			t.Errorf("classical W·p not flat at p=%g: %g vs %g", pt.P, pt.ClassicalWP, flatC)
		}
		if pt.P <= pmaxS && !approx(pt.StrassenWP, flatS, 1e-9) {
			t.Errorf("Strassen W·p not flat at p=%g: %g vs %g", pt.P, pt.StrassenWP, flatS)
		}
	}
	// Past saturation both curves rise.
	last := pts[len(pts)-1]
	if !(last.ClassicalWP > flatC) || !(last.StrassenWP > flatS) {
		t.Error("W·p should rise past the saturation points")
	}
	// Strassen saturates earlier: at the classical saturation point the
	// Strassen curve is already rising.
	for _, pt := range pts {
		if pt.P > pmaxS*1.5 && pt.P < pmaxC*0.9 {
			if approx(pt.StrassenWP, flatS, 1e-6) {
				t.Errorf("Strassen W·p should have left the flat region at p=%g", pt.P)
			}
		}
	}
	// Strassen-like communicates less at pmin (lower flat value) — as drawn
	// in Figure 3, the Strassen line sits below the classical one.
	if flatS >= flatC {
		t.Errorf("Strassen flat W·p %g should sit below classical %g", flatS, flatC)
	}
}

func TestOmegaStrassenValue(t *testing.T) {
	if !approx(OmegaStrassen, 2.807354922, 1e-9) {
		t.Errorf("log2(7): got %.9f", OmegaStrassen)
	}
}
