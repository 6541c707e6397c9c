package opt_test

import (
	"fmt"
	"math"

	"perfscale/internal/casestudy"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/opt"
)

// ExampleNBody_OptimalMemory answers the paper's first optimization
// question: the memory per processor that minimizes total energy, and the
// processor range over which that minimum is attainable.
func ExampleNBody_OptimalMemory() {
	pb := opt.NBody{M: machine.Illustrative(), N: machine.IllustrativeN, F: 10}
	lo, hi := pb.MinEnergyProcRange()
	fmt.Printf("M0 = %.0f words\n", pb.OptimalMemory())
	fmt.Printf("attainable for p in [%.0f, %.0f]\n", lo, hi)
	// Output:
	// M0 = 2001 words
	// attainable for p in [5, 25]
}

// ExampleMatMul is the quickstart: model a matrix multiplication on the
// paper's case-study machine, find its energy-optimal configuration, and
// confirm the headline result — inside the replication range, adding
// processors cuts runtime without costing a single extra joule.
func ExampleMatMul() {
	// A machine: the dual-socket Sandy Bridge server of Section VI.
	m := machine.Jaketown()
	fmt.Println(m)

	// A problem: multiply two 16384x16384 matrices.
	const n = 16384

	// Question 1 of the paper: what memory per processor minimizes energy?
	pb := opt.MatMul{M: m, N: n}
	mem := pb.OptimalMemory()
	fmt.Printf("\nenergy-optimal memory per processor: %.3g words\n", mem)
	fmt.Printf("minimum energy: %.3g J\n", pb.MinEnergy())

	// The perfect-strong-scaling region for that memory.
	pmin, pmax := pb.PMin(mem), pb.PMax(mem)
	fmt.Printf("perfect strong scaling holds for p in [%.3g, %.3g]\n\n", pmin, pmax)

	// The headline: sweep p across the region at fixed memory. Runtime
	// falls as 1/p; energy does not move.
	fmt.Printf("%8s  %14s  %14s\n", "p", "time (s)", "energy (J)")
	for p := pmin; p <= pmax; p *= 2 {
		r := core.MatMulClassical(m, n, p, mem)
		fmt.Printf("%8.0f  %14.6g  %14.6g\n", p, r.TotalTime(), r.TotalEnergy())
	}
	fmt.Println("\nperfect strong scaling using no additional energy.")
	// Output:
	// machine "jaketown": γt=2.52e-12 βt=1.56e-10 αt=6e-08 | γe=3.78e-10 βe=3.78e-10 αe=0 δe=5.774e-09 εe=0 | M=1.718e+10 m=1.718e+10
	//
	// energy-optimal memory per processor: 5.48e+06 words
	// minimum energy: 1.66e+03 J
	// perfect strong scaling holds for p in [49, 343]
	//
	//        p        time (s)      energy (J)
	//       49        0.232147         1663.64
	//       98        0.116074         1663.64
	//      196       0.0580368         1663.64
	//
	// perfect strong scaling using no additional energy.
}

// ExampleNBody_EnergyScaleForTarget walks question 5 of the paper's
// introduction (Section V.F): given a target energy efficiency in
// GFLOPS/W, what must the machine's energy parameters become? It starts
// from the measured Table I server, reports the achievable n-body
// efficiency, and solves for the technology scaling that reaches the
// target — the paper's hardware/software co-design loop.
func ExampleNBody_EnergyScaleForTarget() {
	base := machine.Jaketown()
	pb := opt.NBody{M: base, N: 1e6, F: 19}

	fmt.Println("co-design study on the Table I machine")
	fmt.Printf("best-case n-body efficiency today: %.3f GFLOPS/W (independent of n, p, M)\n\n",
		pb.Efficiency())

	fmt.Printf("%10s %14s %16s\n", "target", "energy scale", "generations")
	for _, target := range []float64{5, 10, 25, 75, 200} {
		x := pb.EnergyScaleForTarget(target)
		gens := math.Ceil(math.Log2(1 / x))
		fmt.Printf("%7.0f GF/W %13.4g %16.0f\n", target, x, gens)
	}

	// Cross-check with the Section VI matmul trajectory: the joint
	// γe/βe/δe halving path reaches 75 GFLOPS/W at generation...
	g := casestudy.GenerationsToTarget(75, 12)
	fmt.Printf("\nSection VI matmul trajectory reaches 75 GFLOPS/W at generation %d (paper: ~5)\n", g)

	// Verify the solve: apply the scale for 75 GFLOPS/W and re-evaluate.
	x := pb.EnergyScaleForTarget(75)
	scaled := pb
	scaled.M = base.ScaleEnergy(x,
		machine.FieldGammaE, machine.FieldBetaE, machine.FieldAlphaE,
		machine.FieldDeltaE, machine.FieldEpsilonE)
	fmt.Printf("after scaling all energy parameters by %.4g: %.2f GFLOPS/W\n",
		x, scaled.Efficiency())
	// Output:
	// co-design study on the Table I machine
	// best-case n-body efficiency today: 2.645 GFLOPS/W (independent of n, p, M)
	//
	//     target   energy scale      generations
	//       5 GF/W        0.5291                1
	//      10 GF/W        0.2645                2
	//      25 GF/W        0.1058                4
	//      75 GF/W       0.03527                5
	//     200 GF/W       0.01323                7
	//
	// Section VI matmul trajectory reaches 75 GFLOPS/W at generation 5 (paper: ~5)
	// after scaling all energy parameters by 0.03527: 75.00 GFLOPS/W
}
