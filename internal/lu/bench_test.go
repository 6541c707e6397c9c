package lu

import (
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// BenchmarkFactorizations times the report's LU and Cholesky simulator
// runs: stacked 2.5D LU (E5), Cholesky (E19) and block-cyclic 2D LU.
func BenchmarkFactorizations(b *testing.B) {
	dd := matrix.RandomDiagDominant(32, 7)
	spd := matrix.RandomSPD(24, 5)
	for _, bc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"stacked-c4", func() (*Result, error) { return Stacked(sim.Cost{}, 4, 4, dd) }},
		{"cholesky", func() (*Result, error) { return Cholesky(sim.Cost{}, 4, spd) }},
		{"cyclic", func() (*Result, error) { return TwoDCyclic(sim.Cost{}, 2, 8, dd) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
