// Package bounds implements the communication lower bounds and attainable
// per-processor cost expressions of Section III–IV: the word and message
// bounds of Hong–Kung / Irony–Toledo–Tiskin / Ballard et al. (Eqs. 3–5),
// the 2.5D costs (Eq. 7, 8), their Strassen analogues, the n-body and FFT
// costs, the memory-independent strong-scaling limits, and the Figure 3
// series generator.
//
// All expressions follow the paper's convention of dropping constant
// factors; they are exact enough to compare shapes, crossovers and scaling
// regimes, which is all the paper's models consume.
package bounds

import "math"

// OmegaStrassen is log2(7), the exponent of Strassen's algorithm.
var OmegaStrassen = math.Log2(7)

// SequentialWords returns the sequential-model lower bound on words moved
// (Eq. 3): max(I+O, F/√M).
func SequentialWords(flops, mem, inputOutput float64) float64 {
	return math.Max(inputOutput, flops/math.Sqrt(mem))
}

// Costs holds per-processor algorithm costs: the F, W and S of Eq. 1.
type Costs struct {
	Flops float64 // F
	Words float64 // W
	Msgs  float64 // S
}

// ClassicalMatMul returns the per-processor costs of communication-optimal
// classical (O(n³)) matrix multiplication with memory M per processor
// (Eq. 8): F = n³/p, W = n³/(p·√M), S = W/m. These are attained by the 2.5D
// algorithm for n²/p ≤ M ≤ n²/p^(2/3).
func ClassicalMatMul(n, p, mem, maxMsg float64) Costs {
	f := n * n * n / p
	w := n * n * n / (p * math.Sqrt(mem))
	return Costs{Flops: f, Words: w, Msgs: w / maxMsg}
}

// MatMul25D returns the communication costs of the 2.5D algorithm written
// in terms of the replication factor c (Eq. 7): W = n²/√(cp),
// S = √(p/c³) + log2(c). The flop count is n³/p.
func MatMul25D(n, p, c float64) Costs {
	w := n * n / math.Sqrt(c*p)
	s := math.Sqrt(p/(c*c*c)) + math.Log2(math.Max(c, 1))
	return Costs{Flops: n * n * n / p, Words: w, Msgs: s}
}

// FastMatMul returns the per-processor costs of a fast (Strassen-like)
// matrix multiplication algorithm with exponent omega0 (Section IV):
// F = n^ω0/p, W = n^ω0/(p·M^(ω0/2−1)), S = W/m. These are attained by CAPS
// for n²/p ≤ M ≤ n²/p^(2/ω0).
func FastMatMul(n, p, mem, maxMsg, omega0 float64) Costs {
	f := math.Pow(n, omega0) / p
	w := f / math.Pow(mem, omega0/2-1)
	return Costs{Flops: f, Words: w, Msgs: w / maxMsg}
}

// LU25D returns the per-processor costs of 2.5D LU (Section IV):
// the bandwidth term matches matmul, W = n³/(p·√M), but the latency term is
// S = n²/W = √(c·p) (a different lower bound, caused by the critical path),
// which does *not* strong scale.
func LU25D(n, p, mem float64) Costs {
	f := n * n * n / p
	w := n * n * n / (p * math.Sqrt(mem))
	return Costs{Flops: f, Words: w, Msgs: n * n / w}
}

// NBody returns the per-processor costs of the data-replicating direct
// n-body algorithm (Section IV): F = f·n²/p, W = n²/(p·M), S = W/m, valid
// for n/p ≤ M ≤ n/√p. flopsPerPair is the paper's f.
func NBody(n, p, mem, maxMsg, flopsPerPair float64) Costs {
	f := flopsPerPair * n * n / p
	w := n * n / (p * mem)
	return Costs{Flops: f, Words: w, Msgs: w / maxMsg}
}

// FFTNaive returns the per-processor costs of the cyclic-layout parallel
// FFT with a naive all-to-all: F = n·log2(n)/p, W = n/p, S = p.
func FFTNaive(n, p float64) Costs {
	return Costs{Flops: n * math.Log2(n) / p, Words: n / p, Msgs: p}
}

// FFTTree returns the per-processor costs with the tree (Bruck) all-to-all:
// F = n·log2(n)/p, W = n·log2(p)/p, S = log2(p).
func FFTTree(n, p float64) Costs {
	lg := math.Log2(math.Max(p, 1))
	return Costs{Flops: n * math.Log2(n) / p, Words: n * lg / p, Msgs: lg}
}

// --- Strong-scaling ranges -------------------------------------------------

// MatMulPMin returns the fewest processors that can hold one copy of the
// n×n inputs with M words each: pmin = n²/M.
func MatMulPMin(n, mem float64) float64 { return n * n / mem }

// MatMulPMax returns the end of the classical perfect-strong-scaling range
// (Ballard et al.): p = n³/M^(3/2). Beyond it extra memory cannot reduce
// communication.
func MatMulPMax(n, mem float64) float64 { return n * n * n / math.Pow(mem, 1.5) }

// FastMatMulPMax returns the end of the perfect-scaling range for a fast
// algorithm with exponent omega0: p = n^ω0/M^(ω0/2).
func FastMatMulPMax(n, mem, omega0 float64) float64 {
	return math.Pow(n, omega0) / math.Pow(mem, omega0/2)
}

// NBodyPMin returns n/M, the fewest processors that hold the n bodies.
func NBodyPMin(n, mem float64) float64 { return n / mem }

// NBodyPMax returns n²/M², the end of the n-body perfect-scaling range
// (M = n/√p there).
func NBodyPMax(n, mem float64) float64 { return n * n / (mem * mem) }

// InMatMulScalingRange reports whether (p, M) lies in the classical matmul
// perfect-strong-scaling region n²/p ≤ M ≤ n²/p^(2/3).
func InMatMulScalingRange(n, p, mem float64) bool {
	return mem >= n*n/p && mem <= n*n/math.Pow(p, 2.0/3.0)
}

// InNBodyScalingRange reports whether (p, M) lies in the n-body region
// n/p ≤ M ≤ n/√p.
func InNBodyScalingRange(n, p, mem float64) bool {
	return mem >= n/p && mem <= n/math.Sqrt(p)
}

// --- Memory-independent bounds and Figure 3 --------------------------------

// ClassicalWordsAnyMemory returns the classical per-processor word bound
// with unlimited memory exploitation: max(n³/(p·√M), n²/p^(2/3)). The first
// term governs inside the scaling range, the memory-independent second term
// beyond it; they meet at p = MatMulPMax.
func ClassicalWordsAnyMemory(n, p, mem float64) float64 {
	return math.Max(n*n*n/(p*math.Sqrt(mem)), n*n/math.Pow(p, 2.0/3.0))
}

// FastWordsAnyMemory is the Strassen-like analogue:
// max(n^ω0/(p·M^(ω0/2−1)), n²/p^(2/ω0)).
func FastWordsAnyMemory(n, p, mem, omega0 float64) float64 {
	return math.Max(math.Pow(n, omega0)/(p*math.Pow(mem, omega0/2-1)),
		n*n/math.Pow(p, 2/omega0))
}

// Fig3Point is one x-position of Figure 3: bandwidth cost × p for the
// classical and Strassen-like algorithms at processor count P.
type Fig3Point struct {
	P           float64
	ClassicalWP float64 // W·p, classical
	StrassenWP  float64 // W·p, fast with ω0 = log2 7
}

// Fig3Series reproduces Figure 3: for fixed n and per-processor memory M it
// sweeps p from pmin = n²/M to well past both saturation points and reports
// W·p, which is flat (perfect strong scaling) until p = n³/M^(3/2)
// (classical) resp. p = n^ω0/M^(ω0/2) (Strassen), then grows as p^(1/3)
// resp. p^(1−2/ω0).
func Fig3Series(n, mem float64, points int) []Fig3Point {
	pmin := MatMulPMin(n, mem)
	pmaxClassical := MatMulPMax(n, mem)
	// Sweep to 8x the classical saturation point on a log scale.
	pEnd := 8 * pmaxClassical
	out := make([]Fig3Point, 0, points)
	for i := 0; i < points; i++ {
		// A single-point series is the pmin point (i/(points-1) would be
		// 0/0 there).
		frac := 0.0
		if points > 1 {
			frac = float64(i) / float64(points-1)
		}
		p := pmin * math.Pow(pEnd/pmin, frac)
		out = append(out, Fig3Point{
			P:           p,
			ClassicalWP: ClassicalWordsAnyMemory(n, p, mem) * p,
			StrassenWP:  FastWordsAnyMemory(n, p, mem, OmegaStrassen) * p,
		})
	}
	return out
}

// GEMV returns the per-processor costs of distributed dense matrix-vector
// multiplication on a √p×√p grid: F = 2n²/p and W = Θ(n/√p) for the vector
// reduction/collection. This is the paper's BLAS2 example where the I+O
// term of Eq. 3 dominates: F/√M = (2n²/p)/(n/√p) = 2n/√p is the same order
// as the input/output data itself, so no data replication can reduce
// communication and no perfect-strong-scaling region exists.
func GEMV(n, p, maxMsg float64) Costs {
	w := 2 * n / math.Sqrt(p)
	return Costs{Flops: 2 * n * n / p, Words: w, Msgs: math.Max(1, w/maxMsg)}
}

// GEMVNoScalingRatio quantifies the no-scaling statement: the ratio of the
// flop-derived word bound F/√M to the input/output size at the natural
// memory M = n²/p. It is Θ(1) for every n and p — memory cannot buy
// anything — in contrast to matmul's Θ(n/√M) headroom.
func GEMVNoScalingRatio(n, p float64) float64 {
	f := 2 * n * n / p
	mem := n * n / p
	io := n/math.Sqrt(p) + n/math.Sqrt(p) // x slice in, y slice out
	return f / math.Sqrt(mem) / io
}
