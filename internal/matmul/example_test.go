package matmul_test

import (
	"fmt"
	"log"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// ExampleTwoPointFiveD runs the 2.5D matrix-multiplication algorithm on the
// simulator across replication factors c = 1, 2, 4 — holding the problem
// size and per-rank memory fixed while the processor count grows — and
// shows the measured counterpart of the paper's perfect-strong-scaling
// claim: the simulated runtime drops by ≈c while the communication energy
// per rank does not grow.
func ExampleTwoPointFiveD() {
	m := machine.SimDefault()
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}

	const n, q = 192, 4
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	want := matmul.Serial(a, b)

	fmt.Printf("2.5D matmul, n=%d, q=%d: p = 16c ranks, fixed per-rank memory\n\n", n, q)
	fmt.Printf("%3s %5s %12s %9s %12s %14s %12s\n",
		"c", "p", "sim time (s)", "speedup", "max W sent", "model E (J)", "numerics")

	var t1 float64
	for _, c := range []int{1, 2, 4} {
		res, err := matmul.TwoPointFiveD(cost, q, c, a, b)
		if err != nil {
			log.Fatal(err)
		}
		if d := res.C.MaxAbsDiff(want); d > 1e-9*n {
			log.Fatalf("c=%d: wrong product (diff %g)", c, d)
		}
		if c == 1 {
			t1 = res.Sim.Time()
		}
		p := float64(q * q * c)
		// Price the configuration with the paper's model: same n, same M,
		// growing p — the model says E is constant.
		stats := res.Sim.MaxStats()
		modelE := core.Eval(m, bounds.ClassicalMatMul(n, p, stats.PeakMemWords, m.MaxMsgWords),
			p, stats.PeakMemWords).TotalEnergy()
		fmt.Printf("%3d %5.0f %12.3e %8.2fx %12.0f %14.5g %12s\n",
			c, p, res.Sim.Time(), t1/res.Sim.Time(), stats.WordsSent, modelE, "ok")
	}
	fmt.Println("\nmodel energy is identical across rows; simulated time falls with c.")
	// Output:
	// 2.5D matmul, n=192, q=4: p = 16c ranks, fixed per-rank memory
	//
	//   c     p sim time (s)   speedup   max W sent    model E (J)     numerics
	//   1    16    9.665e-04     1.00x        18432      0.0074926           ok
	//   2    32    5.200e-04     1.86x        14978      0.0074926           ok
	//   4    64    3.002e-04     3.22x        13252      0.0074926           ok
	//
	// model energy is identical across rows; simulated time falls with c.
}
