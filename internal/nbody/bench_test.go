package nbody

import (
	"testing"

	"perfscale/internal/sim"
)

// BenchmarkReplicated times E6's largest simulator run: 256 bodies on a
// ring of 8 with c = 4 (p = 32).
func BenchmarkReplicated(b *testing.B) {
	bodies := RandomBodies(256, 9)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}
	for i := 0; i < b.N; i++ {
		if _, err := Replicated(cost, 32, 4, bodies); err != nil {
			b.Fatal(err)
		}
	}
}
