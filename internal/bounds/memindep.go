package bounds

import "math"

// This file holds the *exact-constant* communication lower bounds. Unlike
// the Eq. 3–5 shapes in bounds.go, which follow the paper's convention of
// dropping constant factors, every expression here keeps its leading
// constant so the conformance harness can assert a measured run sits above
// it: a floor with a dropped constant cannot catch an under-counting
// simulator.
//
// Words are counted as the busiest processor's sent + received traffic
// ("words moved"): the bounds below bound the data a processor must access
// beyond what it owns, and a word enters or leaves through the network
// either way.

// Literature sources for the bound catalogue (see docs/BOUNDS.md).
const (
	SourceITT      = "Irony, Toledo & Tiskin (J. Parallel Distrib. Comput. 2004)"
	SourceMemIndep = "Ballard, Demmel, Holtz, Lipshitz & Schwartz (arXiv:1202.3177)"
	SourceRect     = "Al Daas, Ballard, Grigori, Kumar & Rouse (arXiv:2205.13407)"
	SourceHongKung = "Hong & Kung (STOC 1981), parallel corollary"
	SourceNBodyLW  = "Driscoll et al. (IPDPS 2013) / Loomis–Whitney projection"
)

// Canonical bound names used for attribution ("which bound binds"). The
// composite constructors in composite.go and the conformance reports use
// these strings verbatim.
const (
	BoundClassicalMemDep   = "classical/memory-dependent"
	BoundClassicalMemIndep = "classical/memory-independent"
	BoundStrassenMemDep    = "strassen/memory-dependent"
	BoundStrassenMemIndep  = "strassen/memory-independent"
	BoundRectPrefix        = "rect/"
	BoundLUMemDep          = "lu/memory-dependent"
	BoundLUMemIndep        = "lu/memory-independent"
	BoundNBodyMemDep       = "nbody/memory-dependent"
	BoundNBodyMemIndep     = "nbody/memory-independent"
	BoundFFTHongKung       = "fft/hong-kung"
)

// MemDepWords returns the Irony–Toledo–Tiskin memory-dependent word bound
// with its exact constant: a processor that performs mults elementary
// multiplications of a classical (distributive-law) matrix multiplication
// with M words of local memory must move
//
//	W ≥ mults/(2√2·√M) − M
//
// words. The √8 comes from the Loomis–Whitney inequality applied to
// segments of 2M accesses; subtracting M credits the words already
// resident when the processor starts.
func MemDepWords(mults, mem float64) float64 {
	if mem <= 0 {
		return 0
	}
	return math.Max(0, mults/(2*math.Sqrt2*math.Sqrt(mem))-mem)
}

// ClassicalMemIndepWords returns the memory-independent per-processor word
// bound for classical n×n matmul on p processors (Ballard et al.,
// arXiv:1202.3177): some processor performs ≥ n³/p multiplications, so by
// Loomis–Whitney it must access ≥ 3·(n³/p)^(2/3) operands; it can own at
// most a 1/p share of the 3n² words of input+output, leaving
//
//	W ≥ 3·(n³/p)^(2/3) − 3n²/p
//
// words that must cross the network no matter how much memory is
// available. This bound is what ends perfect strong scaling at
// p = n³/M^(3/2).
func ClassicalMemIndepWords(n, p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Max(0, 3*math.Pow(n*n*n/p, 2.0/3.0)-3*n*n/p)
}

// FastMemIndepWords is the Strassen-like analogue (same paper): for a fast
// algorithm with exponent omega0,
//
//	W ≥ n²/p^(2/ω₀) − 3n²/p.
//
// The leading constant of the p^(2/ω₀) term is 1 in the statement of the
// theorem (expansion of the CAPS computation graph); the owned-share
// credit 3n²/p makes the bound attainable-safe at p near pmin.
func FastMemIndepWords(n, p, omega0 float64) float64 {
	if p <= 0 || omega0 <= 2 {
		return 0
	}
	return math.Max(0, n*n/math.Pow(p, 2/omega0)-3*n*n/p)
}

// FastMemDepWords is the memory-dependent Strassen-like bound,
//
//	W ≥ n^ω₀/(2√2·p·M^(ω₀/2−1)) − M.
//
// The literature states the leading constant less crisply than ITT's; we
// keep the conservative 1/(2√2) by analogy, which preserves "measured
// traffic must exceed the bound" without risking a false violation.
func FastMemDepWords(n, p, mem, omega0 float64) float64 {
	if p <= 0 || mem <= 0 || omega0 <= 2 {
		return 0
	}
	w := math.Pow(n, omega0) / (2 * math.Sqrt2 * p * math.Pow(mem, omega0/2-1))
	return math.Max(0, w-mem)
}

// NBodyMemDepBodies returns the memory-dependent bound for the direct
// n-body interaction square, in bodies: a processor evaluating n²/p of the
// n² pairwise interactions with room for M bodies must move
//
//	W ≥ n²/(2·p·M) − M
//
// bodies (conservative ½ constant; subtracting M credits the resident
// block).
func NBodyMemDepBodies(n, p, memBodies float64) float64 {
	if p <= 0 || memBodies <= 0 {
		return 0
	}
	return math.Max(0, n*n/(2*p*memBodies)-memBodies)
}

// NBodyMemIndepBodies is the memory-independent n-body bound, in bodies:
// the n²/p interactions computed by some processor project onto at least
// n/√p distinct source bodies (Loomis–Whitney in two dimensions), of which
// it owns memBodies:
//
//	W ≥ n/√p − memBodies.
//
// It meets the memory-dependent curve at p = n²/M², the end of the n-body
// perfect-scaling range.
func NBodyMemIndepBodies(n, p, memBodies float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Max(0, n/math.Sqrt(p)-memBodies)
}

// FFTMemDepWords returns the Hong–Kung I/O bound for a parallel FFT, in
// real words: some processor performs ≥ n·log₂(n)/p butterfly element
// updates, and with capacity for memComplex complex elements an S-partition
// argument bounds its complex-element traffic by n·log₂n/(2p·log₂M) − M;
// a complex element is two real words. Small sweep sizes hold more memory
// than the bound needs, so this often floors at zero there — it is kept in
// the composite for attribution at scale.
func FFTMemDepWords(n, p, memComplex float64) float64 {
	if p <= 0 || n <= 1 {
		return 0
	}
	mc := math.Max(memComplex, 4) // log₂M degenerates below 4 elements
	q := n * math.Log2(n) / (2 * p * math.Log2(mc))
	return math.Max(0, 2*(q-mc))
}

// --- Plateau attribution -----------------------------------------------------

// Plateau describes where and why one algorithm's perfect-strong-scaling
// range ends for a fixed problem size and per-processor memory: at PEnd the
// attainable memory-dependent communication curve meets the
// memory-independent floor, and past it extra processors (or memory) can no
// longer reduce per-processor traffic proportionally — the
// memory-independent wall.
type Plateau struct {
	// PMin is the fewest processors whose combined memory holds the
	// problem; PEnd the exact endpoint of the perfect-scaling range.
	PMin float64 `json:"p_min"`
	PEnd float64 `json:"p_end"`
	// DependentBound and IndependentBound name the composite bound that
	// binds on each side of PEnd (see the Bound* constants).
	DependentBound   string `json:"dependent_bound"`
	IndependentBound string `json:"independent_bound"`
}

// BindingAt names the bound that governs the communication cost at
// processor count p: the memory-dependent bound inside the scaling range,
// the memory-independent one at and past PEnd. The relative epsilon keeps
// the attribution stable when PEnd lands an ulp off an integer p (the
// curves meet exactly at PEnd, so either label is numerically defensible
// there; "independent" is the informative one).
func (pl Plateau) BindingAt(p float64) string {
	if p >= pl.PEnd*(1-1e-12) {
		return pl.IndependentBound
	}
	return pl.DependentBound
}

// ClassicalPlateau returns the plateau descriptor for classical matmul at
// fixed n and per-processor memory M: perfect strong scaling from
// pmin = n²/M to PEnd = n³/M^(3/2), where n³/(p√M) meets n²/p^(2/3).
func ClassicalPlateau(n, mem float64) Plateau {
	return Plateau{
		PMin:             MatMulPMin(n, mem),
		PEnd:             MatMulPMax(n, mem),
		DependentBound:   BoundClassicalMemDep,
		IndependentBound: BoundClassicalMemIndep,
	}
}

// FastPlateau is the Strassen-like analogue: PEnd = n^ω₀/M^(ω₀/2), where
// n^ω₀/(p·M^(ω₀/2−1)) meets n²/p^(2/ω₀).
func FastPlateau(n, mem, omega0 float64) Plateau {
	return Plateau{
		PMin:             MatMulPMin(n, mem),
		PEnd:             FastMatMulPMax(n, mem, omega0),
		DependentBound:   BoundStrassenMemDep,
		IndependentBound: BoundStrassenMemIndep,
	}
}

// NBodyPlateau: PEnd = n²/M², where n²/(pM) meets n/√p.
func NBodyPlateau(n, memBodies float64) Plateau {
	return Plateau{
		PMin:             NBodyPMin(n, memBodies),
		PEnd:             NBodyPMax(n, memBodies),
		DependentBound:   BoundNBodyMemDep,
		IndependentBound: BoundNBodyMemIndep,
	}
}
