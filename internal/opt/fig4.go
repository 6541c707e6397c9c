package opt

import (
	"math"

	"perfscale/internal/bounds"
)

// Fig4Cell is one (p, M) point of the Figure 4 plots: the execution-region
// diagrams of the data-replicating n-body algorithm.
type Fig4Cell struct {
	P, Mem float64
	// Feasible reports whether the algorithm can run here:
	// n/p ≤ M ≤ n/√p (between the thick red 1D and 2D limits).
	Feasible bool
	// Energy and Time are the Eq. 16/15 model values.
	Energy, Time float64
	// ProcPower and TotalPower are E/(T·p) and E/T.
	ProcPower, TotalPower float64
	// OnMinEnergyLine reports whether this cell's memory is (within grid
	// resolution) the energy-optimal M0 — Figure 4's green line.
	OnMinEnergyLine bool
}

// Fig4Grid is the sampled execution region.
type Fig4Grid struct {
	Problem NBody
	// M0 is the energy-optimal memory; E* the global minimum energy.
	M0, EStar float64
	Cells     []Fig4Cell
	// PValues and MemValues are the grid axes.
	PValues, MemValues []float64
}

// NBodyRegionGrid samples the Figure 4 execution region on a pCount ×
// memCount grid: p linear in [pLo, pHi] (the paper's axis runs from 6 to
// 100), and M logarithmic between the smallest 1D-limit memory and the
// largest 2D-limit memory over that p range.
func NBodyRegionGrid(pb NBody, pLo, pHi float64, pCount, memCount int) Fig4Grid {
	g := Fig4Grid{Problem: pb, M0: pb.OptimalMemory(), EStar: pb.MinEnergy()}
	memLo := pb.N / pHi            // 1D limit at the largest p
	memHi := pb.N / math.Sqrt(pLo) // 2D limit at the smallest p
	g.PValues = make([]float64, pCount)
	g.MemValues = make([]float64, memCount)
	for i := range g.PValues {
		g.PValues[i] = pLo + (pHi-pLo)*float64(i)/float64(pCount-1)
	}
	for j := range g.MemValues {
		frac := float64(j) / float64(memCount-1)
		g.MemValues[j] = memLo * math.Pow(memHi/memLo, frac)
	}
	// A memory row counts as "the" M0 row if it is the closest row to M0.
	bestRow, bestDist := -1, math.Inf(1)
	for j, mem := range g.MemValues {
		if d := math.Abs(math.Log(mem / g.M0)); d < bestDist {
			bestRow, bestDist = j, d
		}
	}
	for j, mem := range g.MemValues {
		for _, p := range g.PValues {
			cell := Fig4Cell{P: p, Mem: mem}
			cell.Feasible = bounds.InNBodyScalingRange(pb.N, p, mem)
			if cell.Feasible {
				cell.Energy = pb.Energy(mem)
				cell.Time = pb.Time(p, mem)
				cell.TotalPower = cell.Energy / cell.Time
				cell.ProcPower = cell.TotalPower / p
				cell.OnMinEnergyLine = j == bestRow
			}
			g.Cells = append(g.Cells, cell)
		}
	}
	return g
}

// CountFeasible returns how many sampled cells are inside the execution
// region.
func (g Fig4Grid) CountFeasible() int {
	n := 0
	for _, c := range g.Cells {
		if c.Feasible {
			n++
		}
	}
	return n
}

// Budgets holds the Figure 4(b)/(c) budget lines.
type Budgets struct {
	EnergyMax    float64 // Fig 4(b) dark region: E ≤ EnergyMax
	ProcPowerMax float64 // Fig 4(b) cyan region: E/(T·p) ≤ ProcPowerMax
	TimeMax      float64 // Fig 4(c) crosshatch: T ≤ TimeMax
	TotalPowMax  float64 // Fig 4(c) magenta: E/T ≤ TotalPowMax
}

// RegionFlags classifies one cell against the budgets.
type RegionFlags struct {
	WithinEnergy    bool
	WithinProcPower bool
	WithinTime      bool
	WithinTotalPow  bool
}

// Classify returns the budget flags of a feasible cell (all false for
// infeasible cells).
func (b Budgets) Classify(c Fig4Cell) RegionFlags {
	if !c.Feasible {
		return RegionFlags{}
	}
	return RegionFlags{
		WithinEnergy:    c.Energy <= b.EnergyMax,
		WithinProcPower: c.ProcPower <= b.ProcPowerMax,
		WithinTime:      c.Time <= b.TimeMax,
		WithinTotalPow:  c.TotalPower <= b.TotalPowMax,
	}
}

// MatMulGrid is the matmul counterpart of the Figure 4 execution region:
// the technical report's companion plots. Cells are feasible between the 2D
// limit M = n²/p and the 3D limit M = n²/p^(2/3).
type MatMulGrid struct {
	Problem            MatMul
	MStar, EStar       float64
	Cells              []Fig4Cell
	PValues, MemValues []float64
}

// MatMulRegionGrid samples the matmul execution region on a pCount ×
// memCount grid, p and M both log-spaced.
func MatMulRegionGrid(pb MatMul, pLo, pHi float64, pCount, memCount int) MatMulGrid {
	g := MatMulGrid{Problem: pb, MStar: pb.OptimalMemory()}
	g.EStar = pb.Energy(g.MStar)
	memLo := pb.N * pb.N / pHi                    // 2D limit at the largest p
	memHi := pb.N * pb.N / math.Pow(pLo, 2.0/3.0) // 3D limit at the smallest p
	g.PValues = make([]float64, pCount)
	g.MemValues = make([]float64, memCount)
	for i := range g.PValues {
		frac := float64(i) / float64(pCount-1)
		g.PValues[i] = pLo * math.Pow(pHi/pLo, frac)
	}
	for j := range g.MemValues {
		frac := float64(j) / float64(memCount-1)
		g.MemValues[j] = memLo * math.Pow(memHi/memLo, frac)
	}
	bestRow, bestDist := -1, math.Inf(1)
	for j, mem := range g.MemValues {
		if d := math.Abs(math.Log(mem / g.MStar)); d < bestDist {
			bestRow, bestDist = j, d
		}
	}
	n := pb.N
	for j, mem := range g.MemValues {
		for _, p := range g.PValues {
			cell := Fig4Cell{P: p, Mem: mem}
			cell.Feasible = mem >= n*n/p && mem <= n*n/math.Pow(p, 2.0/3.0)
			if cell.Feasible {
				cell.Energy = pb.Energy(mem)
				cell.Time = pb.Time(p, mem)
				cell.TotalPower = cell.Energy / cell.Time
				cell.ProcPower = cell.TotalPower / p
				cell.OnMinEnergyLine = j == bestRow
			}
			g.Cells = append(g.Cells, cell)
		}
	}
	return g
}
