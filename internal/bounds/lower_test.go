package bounds

import (
	"math"
	"testing"
)

// --- exact values ------------------------------------------------------------

func TestClassicalMemIndepWordsValues(t *testing.T) {
	// n=64, p=8: 3·(n³/p)^(2/3) − 3n²/p = 3·(32768)^(2/3) − 1536 = 3072 − 1536.
	if got := ClassicalMemIndepWords(64, 8); !approx(got, 1536, 1e-12) {
		t.Fatalf("ClassicalMemIndepWords(64,8) = %g, want 1536", got)
	}
	// At p=1 a processor owns everything: the bound is exactly zero.
	if got := ClassicalMemIndepWords(64, 1); got != 0 {
		t.Fatalf("ClassicalMemIndepWords(64,1) = %g, want 0", got)
	}
	if got := ClassicalMemIndepWords(64, 0); got != 0 {
		t.Fatalf("p=0 must be vacuous, got %g", got)
	}
}

func TestMemDepWordsValue(t *testing.T) {
	// mults = 2^15, M = 16: 32768/(2√2·4) − 16.
	want := 32768/(2*math.Sqrt2*4) - 16
	if got := MemDepWords(32768, 16); !approx(got, want, 1e-12) {
		t.Fatalf("MemDepWords = %g, want %g", got, want)
	}
	if got := MemDepWords(10, 1e9); got != 0 {
		t.Fatalf("huge memory must floor the bound at 0, got %g", got)
	}
}

func TestFastMemIndepBelowClassical(t *testing.T) {
	// Strassen-like algorithms may communicate less: for large p the fast
	// memory-independent floor must sit below the classical one.
	n, p := 4096.0, 1<<12
	fast := FastMemIndepWords(n, float64(p), OmegaStrassen)
	classical := ClassicalMemIndepWords(n, float64(p))
	if fast <= 0 || classical <= 0 || fast >= classical {
		t.Fatalf("want 0 < fast (%g) < classical (%g) at n=%g p=%d", fast, classical, n, p)
	}
}

// --- rectangular bounds ------------------------------------------------------

func TestRectSquareReducesToClassical(t *testing.T) {
	for _, n := range []float64{32, 64, 1024} {
		for _, p := range []float64{1, 2, 8, 64, 4096} {
			w, regime := RectMemIndepWords(n, n, n, p)
			if regime != ThreeLargeDims {
				t.Fatalf("square n=%g p=%g regime = %v, want three-large", n, p, regime)
			}
			if want := ClassicalMemIndepWords(n, p); !approx(w, want, 1e-12) {
				t.Fatalf("square rect bound %g != classical %g (n=%g p=%g)", w, want, n, p)
			}
		}
	}
}

func TestRectRegimeClassification(t *testing.T) {
	// Tall-skinny C: m=4096, k=64, n=64. Faces: mk=262144, kn=4096, mn=262144;
	// s1=4096. Boundaries: p1 = mkn/(s2·√s1) = 2^24/(2^18·2^6) = 1,
	// p2 = mkn/s1^1.5 = 2^24/2^18 = 64.
	m, k, n := 4096.0, 64.0, 64.0
	p1, p2 := RectRegimeBoundaries(m, k, n)
	if !approx(p1, 1, 1e-12) || !approx(p2, 64, 1e-12) {
		t.Fatalf("boundaries = (%g, %g), want (1, 64)", p1, p2)
	}
	if _, r := RectAccesses(m, k, n, 4); r != TwoLargeDims {
		t.Fatalf("p=4 regime = %v, want two-large", r)
	}
	if _, r := RectAccesses(m, k, n, 256); r != ThreeLargeDims {
		t.Fatalf("p=256 regime = %v, want three-large", r)
	}
	// Outer-product-like shape with a genuine one-large regime: m=n=4096,
	// k=4 → s1 = mk = 16384, s2 = kn = 16384, p1 = mkn/(s2·√s1) = 32.
	m, k, n = 4096, 4, 4096
	p1, _ = RectRegimeBoundaries(m, k, n)
	if !approx(p1, 32, 1e-12) {
		t.Fatalf("one-large boundary = %g, want 32", p1)
	}
	if _, r := RectAccesses(m, k, n, 8); r != OneLargeDim {
		t.Fatalf("p=8 regime = %v, want one-large", r)
	}
}

func TestRectAccessesContinuityAtBoundaries(t *testing.T) {
	shapes := [][3]float64{
		{4096, 64, 64},
		{4096, 4, 4096},
		{1024, 128, 256},
		{65536, 256, 256},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		p1, p2 := RectRegimeBoundaries(m, k, n)
		for _, pb := range []float64{p1, p2} {
			if pb <= 1 {
				continue
			}
			lo, _ := RectAccesses(m, k, n, pb*(1-1e-9))
			hi, _ := RectAccesses(m, k, n, pb*(1+1e-9))
			if !approx(lo, hi, 1e-6) {
				t.Fatalf("shape %v: accesses jump at p=%g: %g vs %g", s, pb, lo, hi)
			}
		}
		// Exact boundary values: s1+2·s2 at p1, 3·s1 at p2.
		s1, s2, _ := sortedFaces(m, k, n)
		if acc, _ := RectAccesses(m, k, n, p1); !approx(acc, s1+2*s2, 1e-9) {
			t.Fatalf("shape %v: accesses(p1) = %g, want s1+2s2 = %g", s, acc, s1+2*s2)
		}
		if acc, _ := RectAccesses(m, k, n, p2); !approx(acc, 3*s1, 1e-9) {
			t.Fatalf("shape %v: accesses(p2) = %g, want 3s1 = %g", s, acc, 3*s1)
		}
	}
}

func TestRectAccessesMonotoneInP(t *testing.T) {
	shapes := [][3]float64{{4096, 64, 64}, {4096, 4, 4096}, {512, 512, 512}, {1000, 3, 7}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		prev := math.Inf(1)
		for p := 1.0; p <= 1<<20; p *= 2 {
			acc, _ := RectAccesses(m, k, n, p)
			if acc > prev*(1+1e-12) {
				t.Fatalf("shape %v: accesses increased at p=%g: %g > %g", s, p, acc, prev)
			}
			prev = acc
		}
	}
}

func TestMemDepMonotoneInPAndM(t *testing.T) {
	// The memory-dependent bound must not increase in p (mults = total/p)
	// or in M.
	total := math.Pow(2, 36)
	prev := math.Inf(1)
	for p := 1.0; p <= 1<<16; p *= 2 {
		w := MemDepWords(total/p, 1<<10)
		if w > prev*(1+1e-12) {
			t.Fatalf("MemDepWords increased in p at p=%g", p)
		}
		prev = w
	}
	prev = math.Inf(1)
	for mem := 4.0; mem <= 1<<24; mem *= 2 {
		w := MemDepWords(total/64, mem)
		if w > prev*(1+1e-12) {
			t.Fatalf("MemDepWords increased in M at M=%g", mem)
		}
		prev = w
	}
}

// --- dependent ↔ independent crossover ---------------------------------------

func TestPlateauCrossover(t *testing.T) {
	// At PEnd the constant-free attainable curve n³/(p√M) meets the
	// memory-independent shape n²/p^(2/3); ClassicalWordsAnyMemory must
	// switch branch exactly there, and Plateau.BindingAt must name the
	// switch.
	n, mem := 65536.0, float64(1<<24)
	pl := ClassicalPlateau(n, mem)
	if want := MatMulPMax(n, mem); pl.PEnd != want {
		t.Fatalf("PEnd = %g, want %g", pl.PEnd, want)
	}
	atEnd := ClassicalWordsAnyMemory(n, pl.PEnd, mem)
	dep := n * n * n / (pl.PEnd * math.Sqrt(mem))
	indep := n * n / math.Pow(pl.PEnd, 2.0/3.0)
	if !approx(dep, indep, 1e-9) || !approx(atEnd, dep, 1e-9) {
		t.Fatalf("curves do not meet at PEnd: dep %g indep %g any %g", dep, indep, atEnd)
	}
	if got := pl.BindingAt(pl.PEnd / 2); got != BoundClassicalMemDep {
		t.Fatalf("inside region binding = %q", got)
	}
	if got := pl.BindingAt(pl.PEnd * 2); got != BoundClassicalMemIndep {
		t.Fatalf("past region binding = %q", got)
	}
	// The endpoint itself is where the memory-independent bound starts to
	// bind: BindingAt names it there, and not just inside.
	if pl.BindingAt(pl.PEnd) != BoundClassicalMemIndep || pl.BindingAt(pl.PEnd*0.99) != BoundClassicalMemDep {
		t.Fatal("BindingAt misclassifies the endpoint")
	}
	// Strassen saturates earlier than classical for M < n².
	fast := FastPlateau(n, mem, OmegaStrassen)
	if fast.PEnd >= pl.PEnd {
		t.Fatalf("strassen plateau %g should end before classical %g", fast.PEnd, pl.PEnd)
	}
}

func TestNBodyPlateauCrossover(t *testing.T) {
	n, mem := 1e6, 100.0
	pl := NBodyPlateau(n, mem)
	if want := n * n / (mem * mem); pl.PEnd != want {
		t.Fatalf("PEnd = %g, want %g", pl.PEnd, want)
	}
	// n²/(p·M) == n/√p at PEnd.
	dep := n * n / (pl.PEnd * mem)
	indep := n / math.Sqrt(pl.PEnd)
	if !approx(dep, indep, 1e-9) {
		t.Fatalf("n-body curves do not meet at PEnd: %g vs %g", dep, indep)
	}
}

// --- composite ---------------------------------------------------------------

func TestMatMulBoundsAttribution(t *testing.T) {
	// Square classical: the memory-independent member is named classical.
	bs := MatMulBounds(MatMulProblem{M: 64, K: 64, N: 64, P: 8, Mem: 512})
	if len(bs.All) != 2 {
		t.Fatalf("want 2 members, got %d", len(bs.All))
	}
	var mi Bound
	for _, b := range bs.All {
		if b.MemIndependent {
			mi = b
		}
	}
	if mi.Name != BoundClassicalMemIndep || !mi.MemIndependent {
		t.Fatalf("mem-independent member = %+v", mi)
	}
	if max := bs.Max(); max.Words < mi.Words {
		t.Fatalf("Max %g below a member %g", max.Words, mi.Words)
	}
	// Rectangular: named by regime, value matches RectMemIndepWords.
	bs = MatMulBounds(MatMulProblem{M: 4096, K: 64, N: 64, P: 4})
	w, regime := RectMemIndepWords(4096, 64, 64, 4)
	if got := bs.Max(); got.Name != regime.BoundName() || !approx(got.Words, w, 1e-12) {
		t.Fatalf("rect composite = %+v, want %s %g", got, regime.BoundName(), w)
	}
	// Strassen-like: the fast pair.
	bs = MatMulBounds(MatMulProblem{M: 4096, K: 4096, N: 4096, P: 49, Mem: 1 << 16, Omega0: OmegaStrassen})
	names := map[string]bool{}
	for _, b := range bs.All {
		names[b.Name] = true
	}
	if !names[BoundStrassenMemIndep] || !names[BoundStrassenMemDep] {
		t.Fatalf("strassen composite members = %v", names)
	}
	// Every member is the true max of a set built from itself alone.
	for _, b := range bs.All {
		if b.Words < 0 {
			t.Fatalf("negative bound %+v", b)
		}
	}
}

func TestCompositeMaxDominatesMembers(t *testing.T) {
	sets := []BoundSet{
		MatMulBounds(MatMulProblem{M: 48, K: 48, N: 48, P: 16, Mem: 432}),
		LUBounds(64, 32, 192),
		NBodyBounds(128, 16, 16, 7),
		FFTBounds(4096, 16, 512),
	}
	for i, bs := range sets {
		max := bs.Max()
		for _, b := range bs.All {
			if b.Words > max.Words {
				t.Fatalf("set %d: member %s (%g) exceeds Max %s (%g)", i, b.Name, b.Words, max.Name, max.Words)
			}
		}
	}
	var empty BoundSet
	if empty.Max().Words != 0 || empty.Max().Name != "" {
		t.Fatal("empty set Max must be the zero Bound")
	}
}

// --- Fig3Series regression (satellite: points=1 divide-by-zero) --------------

func TestFig3SeriesSinglePoint(t *testing.T) {
	n, mem := 65536.0, float64(1<<24)
	pts := Fig3Series(n, mem, 1)
	if len(pts) != 1 {
		t.Fatalf("points=1 returned %d points", len(pts))
	}
	pt := pts[0]
	if math.IsNaN(pt.P) || math.IsNaN(pt.ClassicalWP) || math.IsNaN(pt.StrassenWP) {
		t.Fatalf("points=1 produced NaN: %+v", pt)
	}
	if want := MatMulPMin(n, mem); !approx(pt.P, want, 1e-12) {
		t.Fatalf("single point P = %g, want pmin = %g", pt.P, want)
	}
	if got := Fig3Series(n, mem, 0); len(got) != 0 {
		t.Fatalf("points=0 returned %d points", len(got))
	}
}

// --- fuzz --------------------------------------------------------------------

// FuzzBounds checks the structural invariants of the rectangular LP closed
// forms and the composite on arbitrary coordinates: finiteness,
// non-negativity, the LP optimum sandwiched between its unconstrained
// relaxation and the trivial feasible point, square consistency, and
// monotonicity in p.
func FuzzBounds(f *testing.F) {
	f.Add(64.0, 64.0, 64.0, 8.0, 512.0)
	f.Add(4096.0, 64.0, 64.0, 4.0, 1024.0)
	f.Add(4096.0, 4.0, 4096.0, 8.0, 64.0)
	f.Add(3.0, 1000.0, 7.0, 13.0, 11.0)
	f.Fuzz(func(t *testing.T, m, k, n, p, mem float64) {
		// Clamp to a sane positive range; the bounds are only defined there.
		clamp := func(x, lo, hi float64) float64 {
			if math.IsNaN(x) || x < lo {
				return lo
			}
			if x > hi {
				return hi
			}
			return x
		}
		m = clamp(m, 1, 1e6)
		k = clamp(k, 1, 1e6)
		n = clamp(n, 1, 1e6)
		p = clamp(p, 1, 1e9)
		mem = clamp(mem, 1, 1e12)

		acc, regime := RectAccesses(m, k, n, p)
		if math.IsNaN(acc) || math.IsInf(acc, 0) || acc < 0 {
			t.Fatalf("RectAccesses(%g,%g,%g,%g) = %g", m, k, n, p, acc)
		}
		// LP optimum ≥ the unconstrained relaxation 3F^(2/3) and ≤ the
		// trivial feasible point (all three caps active).
		fShare := m * k * n / p
		if lo := 3 * math.Pow(fShare, 2.0/3.0); acc < lo*(1-1e-9) {
			t.Fatalf("accesses %g below unconstrained relaxation %g", acc, lo)
		}
		if hi := m*k + k*n + m*n; acc > hi*(1+1e-9) {
			t.Fatalf("accesses %g above trivial feasible %g (regime %v)", acc, hi, regime)
		}
		// Monotone non-increasing in p.
		acc2, _ := RectAccesses(m, k, n, 2*p)
		if acc2 > acc*(1+1e-9) {
			t.Fatalf("accesses not monotone: p=%g %g, 2p %g", p, acc, acc2)
		}
		// Square consistency.
		wSq, r := RectMemIndepWords(n, n, n, p)
		if r != ThreeLargeDims {
			t.Fatalf("square regime %v", r)
		}
		if want := ClassicalMemIndepWords(n, p); !approx(wSq, want, 1e-9) && math.Abs(wSq-want) > 1e-9 {
			t.Fatalf("square rect %g != classical %g", wSq, want)
		}
		// Composite invariants.
		bs := MatMulBounds(MatMulProblem{M: m, K: k, N: n, P: p, Mem: mem})
		max := bs.Max()
		for _, b := range bs.All {
			if b.Words < 0 || math.IsNaN(b.Words) || b.Words > max.Words {
				t.Fatalf("composite member %+v vs max %+v", b, max)
			}
		}
		// Memory-dependent bound monotone in mem.
		if MemDepWords(fShare, 2*mem) > MemDepWords(fShare, mem)+1e-9 {
			t.Fatalf("MemDepWords not monotone in mem at %g", mem)
		}
	})
}
