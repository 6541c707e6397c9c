package core

import (
	"math"

	"perfscale/internal/machine"
)

// ScalingPoint is one (p, M) configuration in a strong-scaling sweep of a
// fixed problem size: the replication factor c = p/pmin, the model runtime
// and total energy.
type ScalingPoint struct {
	C      float64 // replication factor p/pmin
	P      float64
	Mem    float64
	Time   float64
	Energy float64
}

// MatMulStrongScalingSweep evaluates classical matmul at p = c·pmin for
// each integer c in [1, cMax], holding the per-processor memory fixed at
// M = n²/pmin — the paper's perfect-strong-scaling construction. Inside the
// sweep, Time falls as 1/c while Energy is constant (Section IV).
func MatMulStrongScalingSweep(m machine.Params, n, pmin float64, cMax int) []ScalingPoint {
	mem := n * n / pmin
	out := make([]ScalingPoint, 0, cMax)
	for c := 1; c <= cMax; c++ {
		p := float64(c) * pmin
		r := MatMulClassical(m, n, p, mem)
		out = append(out, ScalingPoint{C: float64(c), P: p, Mem: mem, Time: r.TotalTime(), Energy: r.TotalEnergy()})
	}
	return out
}

// FastMatMulStrongScalingSweep is the Strassen analogue of
// MatMulStrongScalingSweep with exponent omega0.
func FastMatMulStrongScalingSweep(m machine.Params, n, pmin float64, cMax int, omega0 float64) []ScalingPoint {
	mem := n * n / pmin
	out := make([]ScalingPoint, 0, cMax)
	for c := 1; c <= cMax; c++ {
		p := float64(c) * pmin
		r := FastMatMul(m, n, p, mem, omega0)
		out = append(out, ScalingPoint{C: float64(c), P: p, Mem: mem, Time: r.TotalTime(), Energy: r.TotalEnergy()})
	}
	return out
}

// NBodyStrongScalingSweep evaluates the replicating n-body algorithm at
// p = c·pmin with fixed M = n/pmin for c in [1, cMax].
func NBodyStrongScalingSweep(m machine.Params, n, pmin float64, cMax int, f float64) []ScalingPoint {
	mem := n / pmin
	out := make([]ScalingPoint, 0, cMax)
	for c := 1; c <= cMax; c++ {
		p := float64(c) * pmin
		r := NBody(m, n, p, mem, f)
		out = append(out, ScalingPoint{C: float64(c), P: p, Mem: mem, Time: r.TotalTime(), Energy: r.TotalEnergy()})
	}
	return out
}

// PerfectScaling quantifies how closely a sweep realizes perfect strong
// scaling: it returns the maximum relative deviation of Energy from the
// first point, and the maximum relative deviation of Time·c from the first
// point's Time. Both are 0 for exact perfect scaling in the model.
func PerfectScaling(points []ScalingPoint) (energyDev, timeDev float64) {
	if len(points) == 0 {
		return 0, 0
	}
	e0 := points[0].Energy
	t0 := points[0].Time
	for _, pt := range points {
		if d := math.Abs(pt.Energy-e0) / e0; d > energyDev {
			energyDev = d
		}
		scaled := pt.Time * pt.C / points[0].C
		if d := math.Abs(scaled-t0) / t0; d > timeDev {
			timeDev = d
		}
	}
	return energyDev, timeDev
}

// MatMul3DLimitSweep evaluates Eq. 11 along increasing p at the 3D memory
// limit M = n²/p^(2/3): memory energy falls with p while communication
// energy rises — the post-perfect-scaling tradeoff of Section IV.
func MatMul3DLimitSweep(m machine.Params, n float64, ps []float64) []Result {
	out := make([]Result, 0, len(ps))
	for _, p := range ps {
		out = append(out, MatMul3DLimit(m, n, p))
	}
	return out
}

// MatMulWeakScalingSweep evaluates memory-constrained weak scaling: the
// per-processor memory M stays fixed and the problem grows to fill it,
// n = √(M·p). A corollary of Eq. 10 falls out: the energy *per flop*
// E/n³ = (γe+γt·εe) + B/√M + δe·γt·M + δe·βt'·√M is independent of p — weak
// scaling at constant energy efficiency — while the runtime grows as √p
// (the 2D communication term).
func MatMulWeakScalingSweep(m machine.Params, mem float64, ps []float64) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(ps))
	for _, p := range ps {
		n := math.Sqrt(mem * p)
		r := MatMulClassical(m, n, p, mem)
		out = append(out, ScalingPoint{C: p / ps[0], P: p, Mem: mem,
			Time: r.TotalTime(), Energy: r.TotalEnergy()})
	}
	return out
}

// NBodyWeakScalingSweep is the n-body analogue: M fixed, n = M·p (each
// processor holds its own bodies, c = 1). Energy per interaction
// E/n² stays constant; runtime grows linearly in p (T = γt·f·M²·p + ...).
func NBodyWeakScalingSweep(m machine.Params, mem float64, ps []float64, f float64) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(ps))
	for _, p := range ps {
		n := mem * p
		r := NBody(m, n, p, mem, f)
		out = append(out, ScalingPoint{C: p / ps[0], P: p, Mem: mem,
			Time: r.TotalTime(), Energy: r.TotalEnergy()})
	}
	return out
}
