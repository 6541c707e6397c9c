package matmul

import (
	"context"
	"runtime"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// BenchmarkSmallRun is one /simulate run without the HTTP stack: the two
// shapes the service hosts (n = 128, q = 8, c = 2, p = 128) under a cancel
// context, collectives conducted, on numeric operands and on the phantom
// ones /simulate actually runs. Besides
// ns/op and -benchmem's B/op it reports KiB/run and GCs/run: at this size a
// run's wall follows the collector cycles its garbage triggers, and those
// follow the bytes it allocates (DESIGN §12, "Serving it").
func BenchmarkSmallRun(b *testing.B) {
	const n, q, c = 128, 8, 2
	ma, mb := randPair(n, 7)
	pa, pb := Phantom(n, n), Phantom(n, n)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024,
		Context: context.Background()}
	for _, alg := range []struct {
		name string
		run  func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error)
	}{{"summa25d", TwoPointFiveDSUMMA}, {"matmul25d", TwoPointFiveD}} {
		for _, ops := range []struct {
			name string
			a, b *matrix.Dense
		}{{"numeric", ma, mb}, {"phantom", pa, pb}} {
			b.Run(alg.name+"/"+ops.name, func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := alg.run(cost, q, c, ops.a, ops.b); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(b.N), "KiB/run")
				b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "GCs/run")
			})
		}
	}
}
