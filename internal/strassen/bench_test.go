package strassen

import (
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func BenchmarkSerialStrassen256(b *testing.B) {
	x := matrix.Random(256, 256, 1)
	y := matrix.Random(256, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Multiply(x, y, 64)
	}
}

func BenchmarkClassical256(b *testing.B) {
	x := matrix.Random(256, 256, 1)
	y := matrix.Random(256, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.Mul(x, y)
	}
}

func BenchmarkZOrderRoundTrip(b *testing.B) {
	a := matrix.Random(256, 256, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := DenseToZ(a)
		_ = ZToDense(z, 256)
	}
}

// BenchmarkCAPS times E4's largest simulator run: CAPS with two BFS levels
// (p = 49) at n = 56.
func BenchmarkCAPS(b *testing.B) {
	x := matrix.Random(56, 56, 3)
	y := matrix.Random(56, 56, 4)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CAPS(cost, 2, x, y, 8); err != nil {
			b.Fatal(err)
		}
	}
}
