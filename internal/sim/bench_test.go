package sim

import "testing"

// BenchmarkRingShift measures the runtime's real (wall-clock) overhead per
// simulated message — the metric that bounds how large an experiment the
// simulator can host.
func BenchmarkRingShift(b *testing.B) {
	const p = 16
	const steps = 64
	data := make([]float64, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(p, Cost{AlphaT: 1e-6, BetaT: 1e-9}, func(r *Rank) error {
			w := r.World()
			d := data
			for s := 0; s < steps; s++ {
				d = w.Shift(d, 1)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p*steps), "msgs/op")
}

func BenchmarkAllReduce(b *testing.B) {
	const p = 32
	data := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(p, Cost{AlphaT: 1e-6, BetaT: 1e-9}, func(r *Rank) error {
			r.World().AllReduce(data, OpSum)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterStartup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(64, Cost{}, func(r *Rank) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBcast times the two broadcasts the report's ablation compares,
// binomial tree and scatter+allgather, at a 2¹⁴-word payload on 8 ranks.
func BenchmarkBcast(b *testing.B) {
	data := make([]float64, 1<<14)
	for _, large := range []bool{false, true} {
		name := "binomial"
		if large {
			name = "scatter-allgather"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(8, Cost{AlphaT: 1e-8, BetaT: 1e-9}, func(r *Rank) error {
					var in []float64
					if r.ID() == 0 {
						in = data
					}
					if large {
						r.World().BcastLarge(0, in)
					} else {
						r.World().Bcast(0, in)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
