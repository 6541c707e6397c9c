package obs_test

import (
	"fmt"
	"log"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// Example_report observes a simulated run instead of just measuring it. A
// 2.5D matmul runs with an event-bus Collector subscribed; the obs summary
// then splits the run's Eq. 2 energy into the paper's five terms — γe·F,
// βe·W, αe·S, δe·M·T, εe·T — and the split is verified to sum, bit for bit,
// to the same energy an untraced run is priced at. The same collector also
// feeds the Chrome/Perfetto exporter; see cmd/trace for the full CLI. The
// output is deterministic: virtual time and every counter derive only from
// Cost parameters and payload sizes.
func Example_report() {
	m := machine.SimDefault()
	const q, c, n = 4, 2, 32 // p = q²·c = 32 ranks
	col := obs.NewCollector(q * q * c)
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords), Observers: []sim.Observer{col}}

	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	run, err := matmul.TwoPointFiveD(cost, q, c, a, b)
	if err != nil {
		log.Fatal(err)
	}

	s := obs.NewSummary(m, run.Sim, col)
	fmt.Printf("2.5D matmul, p=%d, traced through the event bus\n", s.P)
	fmt.Printf("energy split (Eq. 2):\n")
	fmt.Printf("  compute   γe·F    %.6g J\n", s.Total.Compute)
	fmt.Printf("  bandwidth βe·W    %.6g J\n", s.Total.Bandwidth)
	fmt.Printf("  latency   αe·S    %.6g J\n", s.Total.Latency)
	fmt.Printf("  memory    δe·M·T  %.6g J\n", s.Total.Memory)
	fmt.Printf("  leakage   εe·T    %.6g J\n", s.Total.Leakage)
	fmt.Printf("  total             %.6g J\n", s.Total.Total())

	// The observability layer must never perturb the physics: the split
	// sums bit-identically to pricing the run's Result the untraced way.
	want := core.PriceSim(m, run.Sim)
	fmt.Printf("split sums to the Result's priced energy: %v\n", s.Total == want && s.Total.Total() == want.Total())
	// Output:
	// 2.5D matmul, p=32, traced through the event bus
	// energy split (Eq. 2):
	//   compute   γe·F    6.656e-05 J
	//   bandwidth βe·W    5.1328e-05 J
	//   latency   αe·S    0.000304 J
	//   memory    δe·M·T  9.75667e-12 J
	//   leakage   εe·T    5.0816e-06 J
	//   total             0.00042697 J
	// split sums to the Result's priced energy: true
}
