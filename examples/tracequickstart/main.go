// Tracequickstart: observe a simulated run instead of just measuring it.
// A 2.5D matmul runs with an event-bus Collector subscribed; the obs
// summary then splits the run's Eq. 2 energy into the paper's five terms
// — γe·F, βe·W, αe·S, δe·M·T, εe·T — and the split is verified to sum,
// bit for bit, to the same energy an untraced run is priced at. The same
// collector also feeds the Chrome/Perfetto exporter; see cmd/trace for
// the full CLI.
package main

import (
	"fmt"
	"strings"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// report runs the traced point and renders the attribution check; main and
// the Example test share it.
func report() string {
	m := machine.SimDefault()
	const q, c, n = 4, 2, 32 // p = q²·c = 32 ranks
	col := obs.NewCollector(q * q * c)
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords), Observers: []sim.Observer{col}}

	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	run, err := matmul.TwoPointFiveD(cost, q, c, a, b)
	if err != nil {
		panic(err)
	}

	s := obs.NewSummary(m, run.Sim, col)
	var out strings.Builder
	fmt.Fprintf(&out, "2.5D matmul, p=%d, traced through the event bus\n", s.P)
	fmt.Fprintf(&out, "energy split (Eq. 2):\n")
	fmt.Fprintf(&out, "  compute   γe·F    %.6g J\n", s.Total.Compute)
	fmt.Fprintf(&out, "  bandwidth βe·W    %.6g J\n", s.Total.Bandwidth)
	fmt.Fprintf(&out, "  latency   αe·S    %.6g J\n", s.Total.Latency)
	fmt.Fprintf(&out, "  memory    δe·M·T  %.6g J\n", s.Total.Memory)
	fmt.Fprintf(&out, "  leakage   εe·T    %.6g J\n", s.Total.Leakage)
	fmt.Fprintf(&out, "  total             %.6g J\n", s.Total.Total())

	// The observability layer must never perturb the physics: the split
	// sums bit-identically to pricing the run's Result the untraced way.
	want := core.PriceSim(m, run.Sim)
	fmt.Fprintf(&out, "split sums to the Result's priced energy: %v\n", s.Total == want && s.Total.Total() == want.Total())
	return out.String()
}

func main() {
	fmt.Print(report())
}
