package opt

import (
	"testing"

	"perfscale/internal/machine"
)

// BenchmarkNBodyRegionGrid times the Figure 4 execution-region sample
// (E7–E9): 48 x 24 (p, M) cells on the illustrative machine.
func BenchmarkNBodyRegionGrid(b *testing.B) {
	pb := NBody{M: machine.Illustrative(), N: machine.IllustrativeN, F: 10}
	for i := 0; i < b.N; i++ {
		_ = NBodyRegionGrid(pb, 6, 100, 48, 24)
	}
}
