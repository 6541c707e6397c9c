package matrix

import (
	"fmt"
	"testing"
)

// benchmarkMulAdd times kernel(c, a, b) accumulating into one preallocated c
// over the block shapes the registry algorithms and the repo benchmark hand
// to the kernel (4³ is sim_scale, 48×16×32 is summarect, 96³ is
// matmul_kernel_p64), plus 256³ for the out-of-L1 case.
func benchmarkMulAdd(b *testing.B, kernel func(c, a, b *Dense)) {
	for _, s := range [][3]int{{4, 4, 4}, {16, 16, 16}, {32, 32, 32}, {48, 16, 32}, {96, 96, 96}, {256, 256, 256}} {
		m, k, n := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			x, y, c := Random(m, k, 1), Random(k, n, 2), New(m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(c, x, y)
			}
			b.ReportMetric(MulFlops(m, k, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

func BenchmarkMulAdd(b *testing.B) { benchmarkMulAdd(b, MulAdd) }

// BenchmarkMulAddOracle is the pre-tiling loop (the test oracle) on the same
// shapes: the base of the ratios in DESIGN §13.
func BenchmarkMulAddOracle(b *testing.B) { benchmarkMulAdd(b, mulAddOracle) }

func benchmarkMul(b *testing.B, n int) {
	x := Random(n, n, 1)
	y := Random(n, n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul(x, y)
	}
}

func BenchmarkMul64(b *testing.B)  { benchmarkMul(b, 64) }
func BenchmarkMul128(b *testing.B) { benchmarkMul(b, 128) }
func BenchmarkMul256(b *testing.B) { benchmarkMul(b, 256) }

func BenchmarkLU128(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := RandomDiagDominant(128, int64(i))
		b.StartTimer()
		if err := LUInPlace(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky128(b *testing.B) {
	src := RandomSPD(128, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := src.Clone()
		b.StartTimer()
		if err := CholeskyInPlace(a); err != nil {
			b.Fatal(err)
		}
	}
}
