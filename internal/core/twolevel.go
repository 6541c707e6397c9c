package core

import (
	"math"

	"perfscale/internal/machine"
)

// TwoLevelResult holds the runtime and energy of a two-level (Figure 2)
// model evaluation.
type TwoLevelResult struct {
	// PN and PL are the node count and cores per node; P = PN·PL.
	PN, PL float64
	Time   float64
	Energy float64
}

// TwoLevelMatMul evaluates the paper's Eq. 12: classical matrix
// multiplication on a machine of pn nodes × pl cores, with node memory Mn
// and core-local memory Ml. Latency is folded in via the substitution
// β ← β + α/m the paper prescribes. The compute term of the printed
// equation reads γt·n²/p; dimensional analysis of Eq. 9 (and the energy
// expression's γe·n³ term) shows it must be γt·n³/p, which we use.
func TwoLevelMatMul(t machine.TwoLevel, n, pn, pl float64) TwoLevelResult {
	n3 := n * n * n
	p := pn * pl
	bn := t.EffBetaTN()
	bl := t.EffBetaTL()
	ben := t.EffBetaEN()
	bel := t.EffBetaEL()

	T := t.GammaT*n3/p + bn*n3/(pn*math.Sqrt(t.MemN)) + bl*n3/(p*math.Sqrt(t.MemL))

	memFactor := t.DeltaEN*t.MemN/pl + t.DeltaEL*t.MemL
	E := n3 * (t.GammaE + t.GammaT*t.EpsilonE +
		(ben+bn*t.EpsilonE)/(pl*math.Sqrt(t.MemN)) +
		(bel+bl*t.EpsilonE)/math.Sqrt(t.MemL) +
		t.GammaT*memFactor +
		memFactor*(bn*pl/math.Sqrt(t.MemN)+bl/math.Sqrt(t.MemL)))
	return TwoLevelResult{PN: pn, PL: pl, Time: T, Energy: E}
}

// TwoLevelNBody evaluates the paper's Eq. 17: the data-replicating direct
// n-body algorithm on a two-level machine, with f flops per interaction.
// Latency folds in via β ← β + α/m as in TwoLevelMatMul.
func TwoLevelNBody(t machine.TwoLevel, n, pn, pl, f float64) TwoLevelResult {
	n2 := n * n
	p := pn * pl
	bn := t.EffBetaTN()
	bl := t.EffBetaTL()
	ben := t.EffBetaEN()
	bel := t.EffBetaEL()

	T := f*n2*t.GammaT/p + bn*n2/(t.MemN*pn) + bl*n2/(t.MemL*p)

	E := n2 * ((f*t.GammaE + f*t.GammaT*t.EpsilonE + t.DeltaEN*bn + t.DeltaEL*bl) +
		(pl*ben+t.EpsilonE*pl*bn)/t.MemN +
		(bel+t.EpsilonE*bl)/t.MemL +
		t.DeltaEN*f*t.GammaT*t.MemN/pl +
		t.DeltaEL*f*t.GammaT*t.MemL +
		t.DeltaEN*bl*t.MemN/(pl*t.MemL) +
		t.DeltaEL*pl*bn*t.MemL/t.MemN)
	return TwoLevelResult{PN: pn, PL: pl, Time: T, Energy: E}
}

// TwoLevelNBodyDerived recomputes Eq. 17 from first principles — summing
// per-node and per-core charges of Eq. 2 over the two levels — as a
// verification of the printed expression:
//
//	E = p·(γe+γt·εe)·F + p·ben·Wn + p·bel·Wl + pn·δen·Mn·T + p·δel·Ml·T
//
// with per-core F = f·n²/p, per-core inter-node words Wn = n²/(pn·Mn)
// (the derivation that reproduces the printed equation exactly), and
// per-core intra-node words Wl = n²/(p·Ml).
func TwoLevelNBodyDerived(t machine.TwoLevel, n, pn, pl, f float64) TwoLevelResult {
	n2 := n * n
	p := pn * pl
	bn := t.EffBetaTN()
	bl := t.EffBetaTL()

	F := f * n2 / p
	Wn := n2 / (pn * t.MemN)
	Wl := n2 / (p * t.MemL)
	T := t.GammaT*F + bn*Wn + bl*Wl

	E := p*(t.GammaE+0)*F + p*t.EpsilonE*t.GammaT*F +
		p*t.EffBetaEN()*Wn + p*t.EpsilonE*bn*Wn +
		p*t.EffBetaEL()*Wl + p*t.EpsilonE*bl*Wl +
		pn*t.DeltaEN*t.MemN*T +
		p*t.DeltaEL*t.MemL*T
	return TwoLevelResult{PN: pn, PL: pl, Time: T, Energy: E}
}
