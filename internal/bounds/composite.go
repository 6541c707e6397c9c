package bounds

import "math"

// Bound is one applicable communication lower bound on the busiest
// processor's words moved (sent + received), with attribution: which
// theorem produced it and whether it survives unlimited memory.
type Bound struct {
	// Name is one of the Bound* constants ("classical/memory-independent",
	// "rect/two-large-dims", ...).
	Name string `json:"name"`
	// Source cites the theorem (the Source* constants).
	Source string `json:"source"`
	// Words is the bound value, in words moved; zero when the bound is
	// vacuous at these coordinates.
	Words float64 `json:"words"`
	// MemIndependent marks bounds that hold for any amount of local
	// memory — the ones that end perfect strong scaling.
	MemIndependent bool `json:"mem_independent"`
}

// BoundSet is the composite of every lower bound applicable to one run.
// A simulated run must satisfy all of them, so the effective floor is the
// maximum; Max reports which member it is, attributing why communication
// cannot shrink further.
type BoundSet struct {
	All []Bound `json:"all"`
}

// add appends a bound, clamping negative values to zero.
func (bs *BoundSet) add(name, source string, words float64, memIndep bool) {
	bs.All = append(bs.All, Bound{
		Name: name, Source: source,
		Words: math.Max(0, words), MemIndependent: memIndep,
	})
}

// Max returns the binding bound — the member with the largest Words. The
// zero Bound (Words 0) is returned for an empty set.
func (bs BoundSet) Max() Bound {
	var best Bound
	for _, b := range bs.All {
		if b.Words > best.Words {
			best = b
		}
	}
	return best
}

// MatMulProblem identifies one matmul instance for the composite
// constructors: C = A·B with A M×K and B K×N (all equal for square) on P
// processors with Mem words of local memory each. Mem ≤ 0 skips the
// memory-dependent bounds (they need a memory figure to bite). Omega0 > 0
// selects a Strassen-like algorithm with that exponent — the classical
// distributive-law bounds do not apply to it, so the set switches to the
// fast-matmul pair; Strassen-like bounds are stated for square shapes.
type MatMulProblem struct {
	M, K, N float64
	P       float64
	Mem     float64
	Omega0  float64
}

// Square reports whether the problem is n×n×n.
func (pr MatMulProblem) Square() bool { return pr.M == pr.K && pr.K == pr.N }

// MatMulBounds returns the composite bound set for a matmul run. For
// classical algorithms the memory-independent member is the tight
// rectangular bound (named classical/memory-independent on square shapes,
// rect/<regime> otherwise) plus the ITT memory-dependent bound; for
// Strassen-like algorithms the fast-matmul pair.
func MatMulBounds(pr MatMulProblem) BoundSet {
	var bs BoundSet
	if pr.Omega0 > 0 {
		bs.add(BoundStrassenMemIndep, SourceMemIndep,
			FastMemIndepWords(pr.N, pr.P, pr.Omega0), true)
		if pr.Mem > 0 {
			bs.add(BoundStrassenMemDep, SourceMemIndep,
				FastMemDepWords(pr.N, pr.P, pr.Mem, pr.Omega0), false)
		}
		return bs
	}
	w, regime := RectMemIndepWords(pr.M, pr.K, pr.N, pr.P)
	if pr.Square() {
		bs.add(BoundClassicalMemIndep, SourceMemIndep, w, true)
	} else {
		bs.add(regime.BoundName(), SourceRect, w, true)
	}
	if pr.Mem > 0 {
		bs.add(BoundClassicalMemDep, SourceITT,
			RectMemDepWords(pr.M, pr.K, pr.N, pr.P, pr.Mem), false)
	}
	return bs
}

// LUBounds returns the composite set for dense LU on p processors with M
// words each: LU embeds n³/3 classical multiplies, so the matmul bounds
// apply at that flop count, with the owned share taken over the 2n² words
// of input matrix plus factors.
func LUBounds(n, p, mem float64) BoundSet {
	var bs BoundSet
	if p > 0 {
		acc := 3 * math.Pow(n*n*n/(3*p), 2.0/3.0)
		bs.add(BoundLUMemIndep, SourceMemIndep, acc-2*n*n/p, true)
		if mem > 0 {
			bs.add(BoundLUMemDep, SourceITT, MemDepWords(n*n*n/(3*p), mem), false)
		}
	}
	return bs
}

// NBodyBounds returns the composite set for the direct n-body force
// computation, converted to words via wordsPerBody. memBodies is the
// per-processor capacity in bodies (the replicated algorithm's c·n/p).
func NBodyBounds(n, p, memBodies, wordsPerBody float64) BoundSet {
	var bs BoundSet
	bs.add(BoundNBodyMemIndep, SourceNBodyLW,
		NBodyMemIndepBodies(n, p, memBodies)*wordsPerBody, true)
	if memBodies > 0 {
		bs.add(BoundNBodyMemDep, SourceNBodyLW,
			NBodyMemDepBodies(n, p, memBodies)*wordsPerBody, false)
	}
	return bs
}

// FFTBounds returns the composite set for an n-point parallel FFT with
// per-processor capacity memComplex complex elements, in real words.
func FFTBounds(n, p, memComplex float64) BoundSet {
	var bs BoundSet
	bs.add(BoundFFTHongKung, SourceHongKung, FFTMemDepWords(n, p, memComplex), false)
	return bs
}
