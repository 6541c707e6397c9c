package fft

import (
	"testing"

	"perfscale/internal/sim"
)

func benchmarkSerial(b *testing.B, n int) {
	x := RandomSignal(n, 1)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Serial(x)
	}
}

func BenchmarkSerial1k(b *testing.B)  { benchmarkSerial(b, 1<<10) }
func BenchmarkSerial64k(b *testing.B) { benchmarkSerial(b, 1<<16) }

// BenchmarkDistributed times E15's simulator runs: the naive and the tree
// all-to-all exchange at n = 1024, p = 16.
func BenchmarkDistributed(b *testing.B) {
	x := RandomSignal(1024, 3)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-9, AlphaT: 1e-6}
	for _, tree := range []bool{false, true} {
		name := "naive"
		if tree {
			name = "tree"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Distributed(cost, 16, x, tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
