package seq

import (
	"testing"

	"perfscale/internal/matrix"
)

// BenchmarkBlockedMatMul times E17's out-of-core matmul: n = 48 with
// 8x8 blocks in a 192-word fast memory.
func BenchmarkBlockedMatMul(b *testing.B) {
	x := matrix.Random(48, 48, 1)
	y := matrix.Random(48, 48, 2)
	for i := 0; i < b.N; i++ {
		mc, err := New(3*8*8, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := BlockedMatMul(mc, x, y, 8); err != nil {
			b.Fatal(err)
		}
	}
}
