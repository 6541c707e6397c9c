package sim_test

import (
	"fmt"
	"testing"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// BenchmarkWorkerScaling tracks the engine's own strong scaling: the same
// run at Workers 1 and 2, as ranks/s and the T1/T2 speedup (reported on the
// workers=2 rows; 2.0 is perfect). The shapes are the benchmark's: sim_scale
// (2.5D Cannon, p=32,768), the largest sim_mix member (2.5D SUMMA q=64 c=1,
// p=4096 — row/column broadcasts, one conductor per 64 members) and the
// p2p probe's ring SendRecv. DESIGN.md §12 records the table.
func BenchmarkWorkerScaling(b *testing.B) {
	const n = 256
	a, bb := matrix.Random(n, n, 1), matrix.Random(n, n, 2)
	shapes := []struct {
		name string
		p    int
		run  func(sim.Cost) error
	}{
		{"matmul25d_q64_c8", 32768, func(cost sim.Cost) error {
			_, err := matmul.TwoPointFiveD(cost, 64, 8, a, bb)
			return err
		}},
		{"summa25d_q64_c1", 4096, func(cost sim.Cost) error {
			_, err := matmul.TwoPointFiveDSUMMA(cost, 64, 1, a, bb)
			return err
		}},
		{"ring_p4096", 4096, func(cost sim.Cost) error {
			_, err := sim.Run(4096, cost, func(r *sim.Rank) error {
				buf := make([]float64, 8)
				next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
				for i := 0; i < 64; i++ {
					buf = r.SendRecv(next, buf, prev)
				}
				return nil
			})
			return err
		}},
	}
	for _, sh := range shapes {
		var t1 float64 // seconds per run at Workers=1
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				cost := sim.Cost{
					GammaT: 1e-11, BetaT: 1e-10, AlphaT: 1e-6,
					Workers: workers,
				}
				for i := 0; i < b.N; i++ {
					if err := sh.run(cost); err != nil {
						b.Fatal(err)
					}
				}
				per := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(float64(sh.p)/per, "ranks/s")
				if workers == 1 {
					t1 = per
				} else if t1 > 0 {
					b.ReportMetric(t1/per, "T1/T2")
				}
			})
		}
	}
}
