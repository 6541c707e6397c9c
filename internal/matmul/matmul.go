// Package matmul implements distributed dense matrix multiplication on the
// virtual-time simulator: the 2.5D algorithm of Solomonik and Demmel in its
// Cannon (TwoPointFiveD) and SUMMA (TwoPointFiveDSUMMA) forms, whose c = 1
// runs are the classical 2D algorithms, the 3D algorithm of Agarwal et al.,
// and SUMMA on rectangular operands and grids (SUMMARect).
//
// Every algorithm computes C = A·B on numeric operands with the real
// arithmetic, verified against serial multiplication. On phantom operands
// (Phantom) the same program runs payload-free: every message, flop charge
// and memory count is the numeric run's — the paper's T and E price only
// those counts — but no block is copied, multiplied or assembled, and the
// result carries no product. Initial block distribution and final gather
// are not charged to the simulation — the paper's models likewise assume
// the operands start distributed (one copy spread over the machine,
// Section III).
package matmul

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// RunResult bundles the assembled product and the simulation statistics.
type RunResult struct {
	// C is the assembled global product; nil for a payload-free run.
	C *matrix.Dense
	// Sim holds the per-rank counters and virtual clocks.
	Sim *sim.Result
}

// Phantom returns a rows×cols phantom operand: a shape with no values, a
// view of sim.Phantom's read-only zeros. Passing phantom A and B to any
// algorithm here makes a payload-free run with the numeric run's counters,
// clocks and ActivePairs.
func Phantom(rows, cols int) *matrix.Dense {
	return matrix.FromData(rows, cols, sim.Phantom(rows*cols))
}

// kernels is a run's local arithmetic: real on numeric operands, skipped on
// phantom ones, whose blocks are phantoms of the same shapes. The
// algorithms charge every flop with Rank.Compute either way.
type kernels struct{ phantom bool }

// kernelsFor picks the kernels for a run's operands, which must be both
// numeric or both phantom.
func kernelsFor(a, b *matrix.Dense) (kernels, error) {
	pa, pb := sim.IsPhantom(a.Data), sim.IsPhantom(b.Data)
	if pa != pb {
		return kernels{}, fmt.Errorf("matmul: operands must be both numeric or both phantom")
	}
	return kernels{phantom: pa}, nil
}

// block returns a copy of a's sub-matrix (matrix.Dense.Block).
func (k kernels) block(a *matrix.Dense, r0, c0, rows, cols int) *matrix.Dense {
	if k.phantom {
		return Phantom(rows, cols)
	}
	return a.Block(r0, c0, rows, cols)
}

// zeros returns a rows×cols accumulator.
func (k kernels) zeros(rows, cols int) *matrix.Dense {
	if k.phantom {
		return Phantom(rows, cols)
	}
	return matrix.New(rows, cols)
}

// mulAdd accumulates a·b into c (matrix.MulAdd).
func (k kernels) mulAdd(c, a, b *matrix.Dense) {
	if !k.phantom {
		matrix.MulAdd(c, a, b)
	}
}

// assemble stitches per-rank rows×cols C blocks, laid out on grid, back
// into the global product; nil for a payload-free run.
func (k kernels) assemble(blocks []*matrix.Dense, grid sim.Grid2D, rows, cols int) *matrix.Dense {
	if k.phantom {
		return nil
	}
	c := matrix.New(grid.Rows*rows, grid.Cols*cols)
	for id, blk := range blocks {
		if blk == nil {
			continue
		}
		row, col := grid.Coords(id)
		c.SetBlock(row*rows, col*cols, blk)
	}
	return c
}

// checkSquare validates operand shapes and divisibility by the grid size,
// and picks the run's kernels.
func checkSquare(a, b *matrix.Dense, q int) (int, kernels, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return 0, kernels{}, fmt.Errorf("matmul: need equal square operands, got %dx%d and %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := a.Rows
	if q <= 0 || n%q != 0 {
		return 0, kernels{}, fmt.Errorf("matmul: matrix size %d not divisible by grid size %d", n, q)
	}
	kern, err := kernelsFor(a, b)
	return n, kern, err
}

// Serial returns A·B computed locally — the verification baseline.
func Serial(a, b *matrix.Dense) *matrix.Dense { return matrix.Mul(a, b) }
