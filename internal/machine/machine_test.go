package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestJaketownValidates(t *testing.T) {
	p := Jaketown()
	if err := p.Validate(); err != nil {
		t.Fatalf("Jaketown preset should validate: %v", err)
	}
}

func TestIllustrativeValidates(t *testing.T) {
	p := Illustrative()
	if err := p.Validate(); err != nil {
		t.Fatalf("Illustrative preset should validate: %v", err)
	}
}

func TestSimDefaultValidates(t *testing.T) {
	p := SimDefault()
	if err := p.Validate(); err != nil {
		t.Fatalf("SimDefault preset should validate: %v", err)
	}
}

func TestJaketownTwoLevelValidates(t *testing.T) {
	tl := JaketownTwoLevel()
	if err := tl.Validate(); err != nil {
		t.Fatalf("JaketownTwoLevel preset should validate: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero gamma_t", func(p *Params) { p.GammaT = 0 }},
		{"negative gamma_t", func(p *Params) { p.GammaT = -1 }},
		{"negative beta_t", func(p *Params) { p.BetaT = -1e-9 }},
		{"negative alpha_t", func(p *Params) { p.AlphaT = -1e-6 }},
		{"negative gamma_e", func(p *Params) { p.GammaE = -1 }},
		{"negative beta_e", func(p *Params) { p.BetaE = -1 }},
		{"negative alpha_e", func(p *Params) { p.AlphaE = -1 }},
		{"negative delta_e", func(p *Params) { p.DeltaE = -1 }},
		{"negative epsilon_e", func(p *Params) { p.EpsilonE = -1 }},
		{"NaN beta_t", func(p *Params) { p.BetaT = math.NaN() }},
		{"Inf delta_e", func(p *Params) { p.DeltaE = math.Inf(1) }},
		{"zero memory", func(p *Params) { p.MemWords = 0 }},
		{"zero max msg", func(p *Params) { p.MaxMsgWords = 0 }},
		{"msg exceeds memory", func(p *Params) { p.MaxMsgWords = p.MemWords * 2 }},
		{"NaN gamma_t", func(p *Params) { p.GammaT = math.NaN() }},
		{"Inf gamma_t", func(p *Params) { p.GammaT = math.Inf(1) }},
		{"NaN memory", func(p *Params) { p.MemWords = math.NaN() }},
		{"NaN max msg", func(p *Params) { p.MaxMsgWords = math.NaN() }},
		{"Inf memory and max msg", func(p *Params) { p.MemWords, p.MaxMsgWords = math.Inf(1), math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Jaketown()
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Fatalf("Validate should reject %s", tc.name)
			}
		})
	}
}

func TestTwoLevelValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TwoLevel)
	}{
		{"zero gamma_t", func(p *TwoLevel) { p.GammaT = 0 }},
		{"negative beta_t^n", func(p *TwoLevel) { p.BetaTN = -1 }},
		{"negative beta_e^l", func(p *TwoLevel) { p.BetaEL = -1 }},
		{"zero node memory", func(p *TwoLevel) { p.MemN = 0 }},
		{"zero core memory", func(p *TwoLevel) { p.MemL = 0 }},
		{"zero node msg", func(p *TwoLevel) { p.MaxMsgN = 0 }},
		{"NaN gamma_t", func(p *TwoLevel) { p.GammaT = math.NaN() }},
		{"NaN node memory", func(p *TwoLevel) { p.MemN = math.NaN() }},
		{"Inf core memory", func(p *TwoLevel) { p.MemL = math.Inf(1) }},
		{"NaN core msg", func(p *TwoLevel) { p.MaxMsgL = math.NaN() }},
		{"Inf node msg", func(p *TwoLevel) { p.MaxMsgN = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl := JaketownTwoLevel()
			tc.mutate(&tl)
			if err := tl.Validate(); err == nil {
				t.Fatalf("Validate should reject %s", tc.name)
			}
		})
	}
}

func TestScaleEnergySingleField(t *testing.T) {
	base := Jaketown()
	scaled := base.ScaleEnergy(0.5, FieldGammaE)
	if scaled.GammaE != base.GammaE/2 {
		t.Errorf("gamma_e not halved: got %g want %g", scaled.GammaE, base.GammaE/2)
	}
	if scaled.BetaE != base.BetaE || scaled.DeltaE != base.DeltaE {
		t.Error("ScaleEnergy(FieldGammaE) must not touch other fields")
	}
	// Original untouched.
	if base.GammaE != Jaketown().GammaE {
		t.Error("ScaleEnergy must not mutate the receiver")
	}
}

func TestScaleEnergyAllFields(t *testing.T) {
	base := SimDefault()
	scaled := base.ScaleEnergy(0.25, FieldGammaE, FieldBetaE, FieldAlphaE, FieldDeltaE, FieldEpsilonE)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"gamma_e", scaled.GammaE, base.GammaE / 4},
		{"beta_e", scaled.BetaE, base.BetaE / 4},
		{"alpha_e", scaled.AlphaE, base.AlphaE / 4},
		{"delta_e", scaled.DeltaE, base.DeltaE / 4},
		{"epsilon_e", scaled.EpsilonE, base.EpsilonE / 4},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %g want %g", c.name, c.got, c.want)
		}
	}
	if scaled.GammaT != base.GammaT || scaled.BetaT != base.BetaT {
		t.Error("ScaleEnergy must not touch timing parameters")
	}
}

func TestAfterGenerations(t *testing.T) {
	base := Jaketown()
	g3 := base.AfterGenerations(3, FieldGammaE)
	if relErr(g3.GammaE, base.GammaE/8) > 1e-15 {
		t.Errorf("3 generations should divide gamma_e by 8: got %g want %g", g3.GammaE, base.GammaE/8)
	}
	g0 := base.AfterGenerations(0, FieldGammaE)
	if g0.GammaE != base.GammaE {
		t.Error("0 generations must be identity")
	}
	neg := base.AfterGenerations(-5, FieldGammaE)
	if neg.GammaE != base.GammaE {
		t.Error("negative generations must clamp to identity")
	}
}

func TestCommEnergyPerWord(t *testing.T) {
	p := Params{
		GammaT: 1, BetaT: 2, AlphaT: 3,
		GammaE: 4, BetaE: 5, AlphaE: 6,
		DeltaE: 7, EpsilonE: 8,
		MemWords: 100, MaxMsgWords: 10,
	}
	// B = (βe + βt·εe) + (αe + αt·εe)/m = (5 + 16) + (6 + 24)/10 = 24
	if got := p.CommEnergyPerWord(); relErr(got, 24) > 1e-15 {
		t.Errorf("CommEnergyPerWord: got %g want 24", got)
	}
	// βt + αt/m = 2 + 0.3
	if got := p.CommTimePerWord(); relErr(got, 2.3) > 1e-15 {
		t.Errorf("CommTimePerWord: got %g want 2.3", got)
	}
	// γe + γt·εe = 4 + 8
	if got := p.FlopEnergy(); relErr(got, 12) > 1e-15 {
		t.Errorf("FlopEnergy: got %g want 12", got)
	}
}

func TestEnergyFieldString(t *testing.T) {
	want := map[EnergyField]string{
		FieldGammaE:   "gamma_e",
		FieldBetaE:    "beta_e",
		FieldAlphaE:   "alpha_e",
		FieldDeltaE:   "delta_e",
		FieldEpsilonE: "epsilon_e",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("String(%d): got %q want %q", int(f), f.String(), s)
		}
	}
	if got := EnergyField(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown field should include its value, got %q", got)
	}
}

func TestParamsStringMentionsName(t *testing.T) {
	p := Jaketown()
	if s := p.String(); !strings.Contains(s, "jaketown") {
		t.Errorf("String should mention machine name, got %q", s)
	}
}

func TestJaketownDerivations(t *testing.T) {
	raw := JaketownSpec()
	p := Jaketown()
	if relErr(raw.DerivedGammaT(), p.GammaT) > 1e-3 {
		t.Errorf("derived gamma_t %g disagrees with table value %g", raw.DerivedGammaT(), p.GammaT)
	}
	if relErr(raw.DerivedGammaE(), p.GammaE) > 1e-3 {
		t.Errorf("derived gamma_e %g disagrees with table value %g", raw.DerivedGammaE(), p.GammaE)
	}
	if relErr(raw.DerivedBetaT(), p.BetaT) > 1e-2 {
		t.Errorf("derived beta_t %g disagrees with table value %g", raw.DerivedBetaT(), p.BetaT)
	}
	// Peak = freq*cores*SIMD*2.
	peak := raw.CoreFreqGHz * float64(raw.Cores) * float64(raw.SIMDWidth) * 2
	if relErr(peak, raw.PeakGFLOPS) > 1e-6 {
		t.Errorf("peak recomputation: got %g want %g", peak, raw.PeakGFLOPS)
	}
}

// TestTableIIDerivedColumns is experiment E14: recompute every derived
// column of Table II from the raw specs and compare with the printed
// values. The paper prints 3 significant digits, so we allow 1% (plus one
// row, the 2GHz A9, where the printed efficiency rounds from 8/1.9).
func TestTableIIDerivedColumns(t *testing.T) {
	for _, d := range TableIIDevices() {
		t.Run(d.Name, func(t *testing.T) {
			if relErr(d.PeakGFLOPS(), d.PaperPeakGFLOPS) > 1e-3 {
				t.Errorf("peak: got %.4g want %.4g", d.PeakGFLOPS(), d.PaperPeakGFLOPS)
			}
			if relErr(d.GammaT(), d.PaperGammaT) > 0.01 {
				t.Errorf("gamma_t: got %.4g want %.4g", d.GammaT(), d.PaperGammaT)
			}
			if relErr(d.GammaE(), d.PaperGammaE) > 0.01 {
				t.Errorf("gamma_e: got %.4g want %.4g", d.GammaE(), d.PaperGammaE)
			}
			if relErr(d.GFLOPSPerWatt(), d.PaperGFLOPSPerW) > 0.01 {
				t.Errorf("GFLOPS/W: got %.4g want %.4g", d.GFLOPSPerWatt(), d.PaperGFLOPSPerW)
			}
		})
	}
}

func TestTableIINoneReachTenGFLOPSPerWatt(t *testing.T) {
	// Section VII's observation: no surveyed device approaches 10 GFLOPS/W.
	for _, d := range TableIIDevices() {
		if d.GFLOPSPerWatt() >= 10 {
			t.Errorf("%s: %g GFLOPS/W contradicts the paper's observation", d.Name, d.GFLOPSPerWatt())
		}
	}
}

func TestDeviceParamsConversion(t *testing.T) {
	d := TableIIDevices()[0]
	p := d.Params(1e-9, 1e-6, 2e-9, 0, 1e-10, 0, 1<<30, 1<<20)
	if err := p.Validate(); err != nil {
		t.Fatalf("converted params should validate: %v", err)
	}
	if relErr(p.GammaT, d.GammaT()) > 1e-15 || relErr(p.GammaE, d.GammaE()) > 1e-15 {
		t.Error("Params must carry the device's derived compute parameters")
	}
	if p.Name != d.Name {
		t.Errorf("Params name: got %q want %q", p.Name, d.Name)
	}
}

// Property: ScaleEnergy composes multiplicatively and never touches timing.
func TestScaleEnergyProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		fa := 0.5 + float64(a)/256 // factors in [0.5, 1.5)
		fb := 0.5 + float64(b)/256
		base := SimDefault()
		twice := base.ScaleEnergy(fa, FieldBetaE).ScaleEnergy(fb, FieldBetaE)
		once := base.ScaleEnergy(fa*fb, FieldBetaE)
		return relErr(twice.BetaE, once.BetaE) < 1e-12 &&
			twice.BetaT == base.BetaT && twice.GammaT == base.GammaT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AfterGenerations is monotone decreasing in generations for any
// selected field.
func TestAfterGenerationsMonotone(t *testing.T) {
	base := Jaketown()
	prev := math.Inf(1)
	for g := 0; g <= 10; g++ {
		cur := base.AfterGenerations(g, FieldGammaE).GammaE
		if cur >= prev {
			t.Fatalf("generation %d: gamma_e %g not below previous %g", g, cur, prev)
		}
		prev = cur
	}
}

func TestTwoLevelEffectiveBetas(t *testing.T) {
	tl := TwoLevel{
		GammaT: 1,
		BetaTN: 2, AlphaTN: 10, MaxMsgN: 5,
		BetaTL: 1, AlphaTL: 4, MaxMsgL: 2,
		BetaEN: 3, AlphaEN: 15,
		BetaEL: 2, AlphaEL: 6,
		MemN: 10, MemL: 5,
	}
	if got := tl.EffBetaTN(); relErr(got, 4) > 1e-15 { // 2 + 10/5
		t.Errorf("EffBetaTN: got %g want 4", got)
	}
	if got := tl.EffBetaTL(); relErr(got, 3) > 1e-15 { // 1 + 4/2
		t.Errorf("EffBetaTL: got %g want 3", got)
	}
	if got := tl.EffBetaEN(); relErr(got, 6) > 1e-15 { // 3 + 15/5
		t.Errorf("EffBetaEN: got %g want 6", got)
	}
	if got := tl.EffBetaEL(); relErr(got, 5) > 1e-15 { // 2 + 6/2
		t.Errorf("EffBetaEL: got %g want 5", got)
	}
}
