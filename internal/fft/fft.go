// Package fft implements the fast Fourier transform: a serial radix-2
// implementation and a distributed six-step (transpose) FFT on the
// simulator whose single data exchange uses either
// the naive personalized all-to-all (W = n/p words, S = p messages) or the
// tree-based Bruck all-to-all (W = (n/p)·log p, S = log p) — the two cost
// points of the paper's Section IV FFT analysis.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"

	"perfscale/internal/sim"
)

// FlopsSerial is the standard operation-count model for a radix-2 complex
// FFT of size n: 5·n·log2(n) real floating-point operations.
func FlopsSerial(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// Serial computes the DFT of x in O(n log n) with an iterative radix-2
// decimation-in-time FFT. len(x) must be a power of two.
func Serial(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	y := make([]complex128, n)
	copy(y, x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		return y
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			y[i], y[j] = y[j], y[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := y[start+k]
				b := y[start+k+half] * w
				y[start+k] = a + b
				y[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	return y
}

// RandomSignal returns n deterministic pseudo-random complex samples.
func RandomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// MaxAbsDiff returns max_k |a[k]−b[k]|.
func MaxAbsDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic("fft: length mismatch")
	}
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// RunResult bundles the transform with the simulation statistics.
type RunResult struct {
	Y   []complex128
	Sim *sim.Result
}

// Distributed computes the DFT of x on p ranks with the six-step
// (transpose) algorithm: factor n = n1·n2 with p | n1 and p | n2; rank r
// owns n1/p rows of the n1×n2 view. Phase 1 runs local size-n2 FFTs and the
// twiddle scaling; the single all-to-all re-buckets columns; phase 2 runs
// local size-n1 FFTs. With tree=false the exchange is the naive
// personalized all-to-all (S = p−1); with tree=true it is the Bruck
// algorithm (S = ⌈log2 p⌉, log p times the words) — the paper's two FFT
// variants.
func Distributed(cost sim.Cost, p int, x []complex128, tree bool) (*RunResult, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d must be a power of two", n)
	}
	n1, n2, err := factor(n, p)
	if err != nil {
		return nil, err
	}
	rowsPer := n1 / p
	colsPer := n2 / p

	results := make([][]complex128, p)
	res, err := sim.Run(p, cost, func(r *sim.Rank) error {
		world := r.World()
		me := r.ID()
		r.Alloc(2 * rowsPer * n2 * 2) // input rows + workspace, complex = 2 words

		// Phase 1: for each owned row j1, FFT over j2 plus twiddles.
		r.Phase("row-fft")
		rows := make([][]complex128, rowsPer)
		for ri := 0; ri < rowsPer; ri++ {
			j1 := me*rowsPer + ri
			row := make([]complex128, n2)
			for j2 := 0; j2 < n2; j2++ {
				row[j2] = x[j1+n1*j2]
			}
			row = Serial(row)
			r.Compute(FlopsSerial(n2))
			for k2 := 0; k2 < n2; k2++ {
				angle := -2 * math.Pi * float64(j1) * float64(k2) / float64(n)
				row[k2] *= cmplx.Exp(complex(0, angle))
			}
			r.Compute(6 * float64(n2)) // one complex multiply per element
			rows[ri] = row
		}

		// Exchange: rank t needs columns [t·colsPer, (t+1)·colsPer) of all
		// rows. Pack per-target blocks, run the all-to-all, unpack.
		r.Phase("all-to-all")
		blockLen := rowsPer * colsPer * 2
		sendBuf := make([]float64, p*blockLen)
		for t := 0; t < p; t++ {
			o := t * blockLen
			for ri := 0; ri < rowsPer; ri++ {
				for ci := 0; ci < colsPer; ci++ {
					v := rows[ri][t*colsPer+ci]
					sendBuf[o] = real(v)
					sendBuf[o+1] = imag(v)
					o += 2
				}
			}
		}
		var recvBuf []float64
		if tree {
			recvBuf = world.AllToAllTree(sendBuf)
		} else {
			recvBuf = world.AllToAll(sendBuf)
		}

		// Phase 2: for each owned column k2, gather B[·][k2], FFT over j1.
		r.Phase("col-fft")
		out := make([]complex128, colsPer*n1)
		for ci := 0; ci < colsPer; ci++ {
			col := make([]complex128, n1)
			for src := 0; src < p; src++ {
				o := src*blockLen + ci*2
				for ri := 0; ri < rowsPer; ri++ {
					idx := o + ri*colsPer*2
					col[src*rowsPer+ri] = complex(recvBuf[idx], recvBuf[idx+1])
				}
			}
			col = Serial(col)
			r.Compute(FlopsSerial(n1))
			copy(out[ci*n1:(ci+1)*n1], col)
		}
		results[me] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reassemble: rank r's column k2 FFT yields y[k2 + n2·k1].
	y := make([]complex128, n)
	for rank, out := range results {
		for ci := 0; ci < colsPer; ci++ {
			k2 := rank*colsPer + ci
			for k1 := 0; k1 < n1; k1++ {
				y[k2+n2*k1] = out[ci*n1+k1]
			}
		}
	}
	return &RunResult{Y: y, Sim: res}, nil
}

// factor splits n into n1·n2, both powers of two divisible by p, as square
// as possible.
func factor(n, p int) (n1, n2 int, err error) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, 0, fmt.Errorf("fft: rank count %d must be a power of two", p)
	}
	best := -1
	for a := 1; a <= n; a <<= 1 {
		b := n / a
		if a*b != n {
			continue
		}
		if a%p == 0 && b%p == 0 {
			if best == -1 || absInt(a-b) < best {
				best = absInt(a - b)
				n1, n2 = a, b
			}
		}
	}
	if best == -1 {
		return 0, 0, fmt.Errorf("fft: cannot factor n=%d into n1·n2 with p=%d dividing both (need n ≥ p²)", n, p)
	}
	return n1, n2, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
