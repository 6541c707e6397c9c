// Package matmul implements distributed dense matrix multiplication on the
// virtual-time simulator: the classical 2D algorithms (Cannon, SUMMA), the
// 3D algorithm of Agarwal et al., and the 2.5D algorithm of Solomonik and
// Demmel that interpolates between them with a data-replication factor c.
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

// Cannon multiplies on a q×q process grid (p = q²) with Cannon's algorithm:
// an initial alignment permutation, then q multiply-shift steps. The block
// size is n/q, so each rank uses M = 3·(n/q)² words plus one shift buffer,
// and communicates W = Θ(n²/√p) words in S = Θ(√p) messages — the 2D
// baseline of the paper.
func Cannon(cost sim.Cost, q int, a, b *matrix.Dense) (*RunResult, error) {
	n, kern, err := checkSquare(a, b, q)
	if err != nil {
		return nil, err
	}
	nb := n / q
	grid := sim.Grid2D{Rows: q, Cols: q}
	cBlocks := make([]*matrix.Dense, q*q)

	res, err := sim.Run(q*q, cost, func(r *sim.Rank) error {
		row, col := grid.Coords(r.ID())
		rowComm, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		colComm, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		// Local blocks; charge 3 resident blocks to the memory tracker.
		r.Alloc(3 * nb * nb)
		aBlk := kern.block(a, row*nb, col*nb, nb, nb)
		bBlk := kern.block(b, row*nb, col*nb, nb, nb)
		cBlk := kern.zeros(nb, nb)

		// Alignment: row i shifts A left by i, column j shifts B up by j.
		aBlk = matrix.FromData(nb, nb, rowComm.Shift(aBlk.Data, -row))
		bBlk = matrix.FromData(nb, nb, colComm.Shift(bBlk.Data, -col))

		for step := 0; step < q; step++ {
			kern.mulAdd(cBlk, aBlk, bBlk)
			r.Compute(matrix.MulFlops(nb, nb, nb))
			if step < q-1 {
				aBlk.Data = rowComm.ShiftOwned(aBlk.Data, -1)
				bBlk.Data = colComm.ShiftOwned(bBlk.Data, -1)
			}
		}
		cBlocks[r.ID()] = cBlk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{C: kern.assemble(cBlocks, grid, nb, nb), Sim: res}, nil
}

// SUMMA multiplies on a q×q grid with the broadcast-based SUMMA algorithm:
// q outer steps, each broadcasting a block column of A along rows and a
// block row of B along columns. Same asymptotic costs as Cannon with
// broadcast trees instead of shifts.
func SUMMA(cost sim.Cost, q int, a, b *matrix.Dense) (*RunResult, error) {
	n, kern, err := checkSquare(a, b, q)
	if err != nil {
		return nil, err
	}
	nb := n / q
	grid := sim.Grid2D{Rows: q, Cols: q}
	cBlocks := make([]*matrix.Dense, q*q)

	res, err := sim.Run(q*q, cost, func(r *sim.Rank) error {
		row, col := grid.Coords(r.ID())
		rowComm, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		colComm, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		r.Alloc(3 * nb * nb)
		aBlk := kern.block(a, row*nb, col*nb, nb, nb)
		bBlk := kern.block(b, row*nb, col*nb, nb, nb)
		cBlk := kern.zeros(nb, nb)

		for t := 0; t < q; t++ {
			// Column t of the grid owns the A panel; row t owns the B panel.
			var aPanel, bPanel []float64
			if col == t {
				aPanel = aBlk.Data
			}
			if row == t {
				bPanel = bBlk.Data
			}
			aPanel = rowComm.Bcast(t, aPanel)
			bPanel = colComm.Bcast(t, bPanel)
			kern.mulAdd(cBlk, matrix.FromData(nb, nb, aPanel), matrix.FromData(nb, nb, bPanel))
			r.Compute(matrix.MulFlops(nb, nb, nb))
		}
		cBlocks[r.ID()] = cBlk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{C: kern.assemble(cBlocks, grid, nb, nb), Sim: res}, nil
}
