package core

import (
	"math"
	"testing"
	"testing/quick"

	"perfscale/internal/bounds"
	"perfscale/internal/machine"
)

func approx(got, want, rel float64) bool {
	if want == 0 {
		return math.Abs(got) < rel
	}
	return math.Abs(got-want)/math.Abs(want) < rel
}

// testMachine has every parameter nonzero so missing terms show up.
func testMachine() machine.Params {
	return machine.Params{
		Name:   "test",
		GammaT: 1e-9, BetaT: 5e-9, AlphaT: 2e-6,
		GammaE: 2e-9, BetaE: 8e-9, AlphaE: 3e-6,
		DeltaE: 4e-10, EpsilonE: 0.05,
		MemWords: 1 << 30, MaxMsgWords: 1 << 16,
	}
}

func TestEvalMatchesHandComputation(t *testing.T) {
	m := testMachine()
	c := bounds.Costs{Flops: 1e9, Words: 1e6, Msgs: 1e3}
	r := Eval(m, c, 4, 1e5)
	wantT := m.GammaT*1e9 + m.BetaT*1e6 + m.AlphaT*1e3
	if !approx(r.TotalTime(), wantT, 1e-12) {
		t.Errorf("T: got %g want %g", r.TotalTime(), wantT)
	}
	wantE := 4 * (m.GammaE*1e9 + m.BetaE*1e6 + m.AlphaE*1e3 + m.DeltaE*1e5*wantT + m.EpsilonE*wantT)
	if !approx(r.TotalEnergy(), wantE, 1e-12) {
		t.Errorf("E: got %g want %g", r.TotalEnergy(), wantE)
	}
}

func TestEvalBreakdownSumsToTotal(t *testing.T) {
	m := testMachine()
	r := MatMulClassical(m, 1024, 16, 1024*1024/8)
	tb := r.Time
	if !approx(tb.Compute+tb.Bandwidth+tb.Latency, r.TotalTime(), 1e-12) {
		t.Error("time breakdown does not sum")
	}
	eb := r.Energy
	sum := eb.Compute + eb.Bandwidth + eb.Latency + eb.Memory + eb.Leakage
	if !approx(sum, r.TotalEnergy(), 1e-12) {
		t.Error("energy breakdown does not sum")
	}
}

func TestMatMulClosedFormsAgreeWithEval(t *testing.T) {
	m := testMachine()
	// Any (n, p, M): the closed forms of Eqs. 9–10 must equal the generic
	// Eval of the Eq. 8 costs.
	cases := []struct{ n, p, mem float64 }{
		{1024, 16, 65536},
		{4096, 64, 1 << 20},
		{300, 4, 30000},
	}
	for _, tc := range cases {
		r := MatMulClassical(m, tc.n, tc.p, tc.mem)
		if want := MatMulTimeClosedForm(m, tc.n, tc.p, tc.mem); !approx(r.TotalTime(), want, 1e-12) {
			t.Errorf("n=%g p=%g: T %g vs closed form %g", tc.n, tc.p, r.TotalTime(), want)
		}
		if want := MatMulEnergyClosedForm(m, tc.n, tc.mem); !approx(r.TotalEnergy(), want, 1e-12) {
			t.Errorf("n=%g p=%g: E %g vs closed form %g", tc.n, tc.p, r.TotalEnergy(), want)
		}
	}
}

func TestMatMulEnergyIndependentOfP(t *testing.T) {
	// The heart of the paper: Eq. 10 has no p anywhere, so scaling p at
	// fixed M leaves energy unchanged while Eval's T falls as 1/p.
	m := testMachine()
	n, mem := 8192.0, 1<<20
	base := MatMulClassical(m, n, 64, float64(mem))
	for _, p := range []float64{128, 256, 512} {
		r := MatMulClassical(m, n, p, float64(mem))
		if !approx(r.TotalEnergy(), base.TotalEnergy(), 1e-12) {
			t.Errorf("p=%g: energy %g differs from %g", p, r.TotalEnergy(), base.TotalEnergy())
		}
		if !approx(r.TotalTime(), base.TotalTime()*64/p, 1e-12) {
			t.Errorf("p=%g: time %g does not scale as 1/p", p, r.TotalTime())
		}
	}
}

func TestMatMul3DTradeoff(t *testing.T) {
	// Eq. 11 commentary: increasing p at the 3D limit reduces memory energy
	// but increases communication energy.
	m := testMachine()
	n := 4096.0
	r1 := MatMul3DLimit(m, n, 64)
	r2 := MatMul3DLimit(m, n, 512)
	if r2.Energy.Memory >= r1.Energy.Memory {
		t.Errorf("memory energy should fall with p: %g -> %g", r1.Energy.Memory, r2.Energy.Memory)
	}
	if r2.Energy.Bandwidth <= r1.Energy.Bandwidth {
		t.Errorf("bandwidth energy should rise with p: %g -> %g", r1.Energy.Bandwidth, r2.Energy.Bandwidth)
	}
}

func TestFastMatMulClosedForm(t *testing.T) {
	m := testMachine()
	w := bounds.OmegaStrassen
	for _, tc := range []struct{ n, p, mem float64 }{
		{1024, 8, 1 << 18},
		{4096, 49, 1 << 20},
	} {
		r := FastMatMul(m, tc.n, tc.p, tc.mem, w)
		want := FastMatMulEnergyClosedForm(m, tc.n, tc.mem, w)
		if !approx(r.TotalEnergy(), want, 1e-9) {
			t.Errorf("n=%g: E %g vs Eq.13 %g", tc.n, r.TotalEnergy(), want)
		}
	}
}

func TestFastMatMulUnlimitedClosedForm(t *testing.T) {
	m := testMachine()
	w := bounds.OmegaStrassen
	n := 4096.0
	for _, p := range []float64{49, 343} {
		r := FastMatMul(m, n, p, n*n/math.Pow(p, 2/w), w)
		want := FastMatMulUnlimitedEnergyClosedForm(m, n, p, w)
		if !approx(r.TotalEnergy(), want, 1e-9) {
			t.Errorf("p=%g: E %g vs Eq.14 %g", p, r.TotalEnergy(), want)
		}
	}
}

func TestFastMatMulEnergyIndependentOfP(t *testing.T) {
	m := testMachine()
	n, mem := 8192.0, 1<<20
	w := bounds.OmegaStrassen
	base := FastMatMul(m, n, 49, float64(mem), w)
	r := FastMatMul(m, n, 343, float64(mem), w)
	if !approx(r.TotalEnergy(), base.TotalEnergy(), 1e-12) {
		t.Errorf("Strassen energy should be p-independent: %g vs %g", r.TotalEnergy(), base.TotalEnergy())
	}
}

func TestNBodyClosedForms(t *testing.T) {
	m := testMachine()
	n, p, mem, f := 1e6, 100.0, 5e4, 16.0
	r := NBody(m, n, p, mem, f)
	if want := NBodyTimeClosedForm(m, n, p, mem, f); !approx(r.TotalTime(), want, 1e-12) {
		t.Errorf("T: %g vs Eq.15 %g", r.TotalTime(), want)
	}
	if want := NBodyEnergyClosedForm(m, n, mem, f); !approx(r.TotalEnergy(), want, 1e-12) {
		t.Errorf("E: %g vs Eq.16 %g", r.TotalEnergy(), want)
	}
}

func TestNBodyEnergyIndependentOfP(t *testing.T) {
	m := testMachine()
	n, mem, f := 1e6, 5e4, 16.0
	base := NBody(m, n, 50, mem, f)
	for _, p := range []float64{100, 200, 400} {
		r := NBody(m, n, p, mem, f)
		if !approx(r.TotalEnergy(), base.TotalEnergy(), 1e-12) {
			t.Errorf("p=%g: n-body energy not constant", p)
		}
		if !approx(r.TotalTime(), base.TotalTime()*50/p, 1e-12) {
			t.Errorf("p=%g: n-body time not 1/p", p)
		}
	}
}

func TestFFTClosedForms(t *testing.T) {
	m := testMachine()
	n, p := math.Pow(2, 20), 64.0
	r := FFT(m, n, p, true)
	if want := FFTTimeClosedForm(m, n, p); !approx(r.TotalTime(), want, 1e-12) {
		t.Errorf("T: %g vs closed form %g", r.TotalTime(), want)
	}
}

func TestFFTNoPerfectScaling(t *testing.T) {
	// FFT energy grows with p (log p terms): no perfect-scaling region.
	m := testMachine()
	n := math.Pow(2, 24)
	e1 := FFT(m, n, 64, true).TotalEnergy()
	e2 := FFT(m, n, 4096, true).TotalEnergy()
	if e2 <= e1 {
		t.Errorf("FFT energy should grow with p: %g -> %g", e1, e2)
	}
}

func TestFFTNaiveVsTreeTradeoff(t *testing.T) {
	m := testMachine()
	n, p := math.Pow(2, 20), 256.0
	naive := FFT(m, n, p, false)
	tree := FFT(m, n, p, true)
	if tree.Costs.Msgs >= naive.Costs.Msgs {
		t.Error("tree should send fewer messages")
	}
	if tree.Costs.Words <= naive.Costs.Words {
		t.Error("tree should move more words")
	}
}

func TestLULatencyTermDoesNotScale(t *testing.T) {
	m := testMachine()
	n, mem := 8192.0, 1<<20
	pmin := bounds.MatMulPMin(n, float64(mem))
	r1 := LU(m, n, pmin, float64(mem))
	r4 := LU(m, n, 4*pmin, float64(mem))
	// Bandwidth time scales by 4; latency time grows.
	if !approx(r4.Time.Bandwidth, r1.Time.Bandwidth/4, 1e-12) {
		t.Errorf("LU bandwidth time should scale: %g vs %g", r4.Time.Bandwidth, r1.Time.Bandwidth)
	}
	if r4.Time.Latency <= r1.Time.Latency {
		t.Errorf("LU latency time should grow: %g vs %g", r4.Time.Latency, r1.Time.Latency)
	}
}

func TestPowerAndEfficiencyHelpers(t *testing.T) {
	m := testMachine()
	r := MatMulClassical(m, 2048, 16, 1<<18)
	if !approx(r.AvgPower(), r.TotalEnergy()/r.TotalTime(), 1e-12) {
		t.Error("AvgPower definition")
	}
	if !approx(r.PowerPerProcessor(), r.AvgPower()/16, 1e-12) {
		t.Error("PowerPerProcessor definition")
	}
	wantEff := 16 * r.Costs.Flops / r.TotalEnergy() / 1e9
	if !approx(r.GFLOPSPerWatt(), wantEff, 1e-12) {
		t.Error("GFLOPSPerWatt definition")
	}
}

func TestRangeChecks(t *testing.T) {
	if err := CheckMatMulRange(1024, 16, 1024*1024/16); err != nil {
		t.Errorf("2D point should be in range: %v", err)
	}
	if err := CheckMatMulRange(1024, 64, 1024*1024/16); err != nil {
		t.Errorf("replicated point should be in range: %v", err)
	}
	if err := CheckMatMulRange(1024, 16, 100); err == nil {
		t.Error("too-little-memory point should fail")
	}
	if err := CheckNBodyRange(1e6, 100, 1e4); err != nil {
		t.Errorf("n-body point should be in range: %v", err)
	}
	if err := CheckNBodyRange(1e6, 100, 1e9); err == nil {
		t.Error("too-much-memory n-body point should fail")
	}
}

// Property: for random machines and configurations, Eval's closed-form and
// generic paths agree for matmul and n-body.
func TestClosedFormsAgreeProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		m := machine.Params{
			GammaT: 1e-12 * (1 + float64(a)), BetaT: 1e-11 * (1 + float64(b)),
			AlphaT: 1e-8 * (1 + float64(c)),
			GammaE: 1e-11 * (1 + float64(d)), BetaE: 2e-11 * (1 + float64(a)),
			AlphaE: 1e-8 * (1 + float64(b)), DeltaE: 1e-12 * (1 + float64(c)),
			EpsilonE: 1e-4 * float64(d),
			MemWords: 1 << 30, MaxMsgWords: float64(1+int(a)) * 1024,
		}
		n := 512.0 * (1 + float64(b%4))
		p := 4.0 * (1 + float64(c%8))
		mem := n * n / p * (1 + float64(d%3)) // within replication range
		r := MatMulClassical(m, n, p, mem)
		if !approx(r.TotalEnergy(), MatMulEnergyClosedForm(m, n, mem), 1e-9) {
			return false
		}
		nb := NBody(m, n*n, p, n*n/p, 10)
		return approx(nb.TotalEnergy(), NBodyEnergyClosedForm(m, n*n, n*n/p, 10), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
