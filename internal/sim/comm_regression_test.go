package sim

import (
	"math/bits"
	"testing"
)

// Regression pins for two cost constants the conformance sweep surfaced.
// The paper's order-notation forms hide them, and both were initially
// mismodelled in the sweep's expectations; the exact values are load-bearing
// there (see internal/conformance/algorithms.go), so a change here must be a
// reviewed decision, not an accident.

// TestBruckHalfBufferWords pins the Bruck all-to-all's word count: each of
// the ⌈log₂p⌉ rounds exchanges HALF the p-block buffer, so a rank sends
// ⌈log₂p⌉·(p·k)/2 words — exactly half of the textbook (n/p)·log₂p form
// the Section IV FFT model uses (bounds.FFTTree keeps the paper's
// constant; this test keeps the implementation honest about its own).
func TestBruckHalfBufferWords(t *testing.T) {
	const k = 3
	for _, p := range []int{2, 4, 8, 16, 32} {
		data := make([]float64, p*k)
		res, err := Run(p, zeroCost, func(r *Rank) error {
			r.World().AllToAllTree(data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds := bits.Len(uint(p - 1))
		want := float64(rounds * p * k / 2)
		for id, s := range res.PerRank {
			if s.WordsSent != want {
				t.Errorf("p=%d rank %d: Bruck sent %g words, want ⌈log₂p⌉·p·k/2 = %g",
					p, id, s.WordsSent, want)
			}
		}
	}
}

// TestReduceScatterCombineFlops pins the ring reduce-scatter's arithmetic,
// the first phase of ReduceLarge: reducing p vectors of k elements costs
// (p−1)·k combine flops in total, and the ring spreads them evenly —
// (p−1)·(k/p) per member. The 2.5D matmul's fiber reduction inherits this
// constant, where it shows up as the extra F beyond 2n³/p that the
// conformance F model accounts for exactly.
func TestReduceScatterCombineFlops(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		k := 8 * p
		data := make([]float64, k)
		res, err := Run(p, zeroCost, func(r *Rank) error {
			r.World().ReduceLarge(0, data, OpSum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64((p - 1) * (k / p))
		total := 0.0
		for id, s := range res.PerRank {
			if s.Flops != want {
				t.Errorf("p=%d rank %d: reduce-scatter charged %g flops, want (p−1)·k/p = %g",
					p, id, s.Flops, want)
			}
			total += s.Flops
		}
		if wantTotal := float64((p - 1) * k); total != wantTotal {
			t.Errorf("p=%d: total combine flops %g, want (p−1)·k = %g", p, total, wantTotal)
		}
	}
}

// TestReduceLargeCombineFlops pins the second phase: the gather to the root
// adds no flops, wherever the root is, so every member — the root included —
// pays exactly the reduce-scatter's (p−1)·(k/p).
func TestReduceLargeCombineFlops(t *testing.T) {
	const p, k = 4, 32
	for _, root := range []int{0, p / 2, p - 1} {
		data := make([]float64, k)
		res, err := Run(p, zeroCost, func(r *Rank) error {
			r.World().ReduceLarge(root, data, OpSum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64((p - 1) * (k / p))
		for id, s := range res.PerRank {
			if s.Flops != want {
				t.Errorf("root %d rank %d: ReduceLarge charged %g flops, want %g", root, id, s.Flops, want)
			}
		}
	}
}
