package matmul

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// SUMMARect multiplies a general mA×kA matrix by a kA×nB matrix on a
// pr×pc process grid with the panel-based SUMMA algorithm: the k dimension
// is processed in panels of width panel; each step broadcasts a block
// column of A along rows and a block row of B along columns and
// accumulates a local rank-panel update. This is the general form a
// downstream user wants — the square SUMMA is the special case
// pr = pc, panel = k/pc.
//
// Requirements: pr | mA, pc | nB, panel | kA, and the k panels must be
// addressable by both grid dimensions: pc | kA and pr | kA (each panel is
// owned by the processor column resp. row whose block-cyclic slice of k
// contains it).
func SUMMARect(cost sim.Cost, pr, pc, panel int, a, b *matrix.Dense) (*RunResult, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matmul: inner dimensions %d vs %d", a.Cols, b.Rows)
	}
	mA, kA, nB := a.Rows, a.Cols, b.Cols
	if pr <= 0 || pc <= 0 {
		return nil, fmt.Errorf("matmul: invalid grid %dx%d", pr, pc)
	}
	if mA%pr != 0 || nB%pc != 0 || kA%pc != 0 || kA%pr != 0 {
		return nil, fmt.Errorf("matmul: shapes (%d,%d,%d) not divisible by grid %dx%d", mA, kA, nB, pr, pc)
	}
	if panel <= 0 || kA%panel != 0 {
		return nil, fmt.Errorf("matmul: panel %d must divide k = %d", panel, kA)
	}
	// Panel ownership: A's k-columns are block-distributed over the pc
	// process columns (kA/pc each); B's k-rows over the pr process rows.
	// Panels must not straddle owners.
	if (kA/pc)%panel != 0 || (kA/pr)%panel != 0 {
		return nil, fmt.Errorf("matmul: panel %d straddles owner blocks (k/pc = %d, k/pr = %d)",
			panel, kA/pc, kA/pr)
	}
	kern, err := kernelsFor(a, b)
	if err != nil {
		return nil, err
	}

	rowsPer := mA / pr
	colsPer := nB / pc
	aColsPer := kA / pc
	bRowsPer := kA / pr
	grid := sim.Grid2D{Rows: pr, Cols: pc}
	cBlocks := make([]*matrix.Dense, pr*pc)

	res, err := sim.Run(pr*pc, cost, func(r *sim.Rank) error {
		row, col := grid.Coords(r.ID())
		rowComm, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		colComm, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		r.Alloc(rowsPer*aColsPer + bRowsPer*colsPer + rowsPer*colsPer)
		aLoc := kern.block(a, row*rowsPer, col*aColsPer, rowsPer, aColsPer)
		bLoc := kern.block(b, row*bRowsPer, col*colsPer, bRowsPer, colsPer)
		cLoc := kern.zeros(rowsPer, colsPer)

		// A panel is read once by MulAdd and dropped, so each step receives
		// into the buffer the previous step's panel occupied.
		var aPanel, bPanel []float64
		for k0 := 0; k0 < kA; k0 += panel {
			// Broadcast A's panel columns [k0, k0+panel) along the row.
			aOwner := k0 / aColsPer
			var aSrc []float64
			if col == aOwner {
				aSrc = kern.block(aLoc, 0, k0-aOwner*aColsPer, rowsPer, panel).Data
			}
			aPanel = rowComm.BcastLargeInto(aPanel, aOwner, aSrc)
			// Broadcast B's panel rows along the column.
			bOwner := k0 / bRowsPer
			var bSrc []float64
			if row == bOwner {
				bSrc = kern.block(bLoc, k0-bOwner*bRowsPer, 0, panel, colsPer).Data
			}
			bPanel = colComm.BcastLargeInto(bPanel, bOwner, bSrc)

			kern.mulAdd(cLoc,
				matrix.FromData(rowsPer, panel, aPanel),
				matrix.FromData(panel, colsPer, bPanel))
			r.Compute(matrix.MulFlops(rowsPer, panel, colsPer))
		}
		cBlocks[r.ID()] = cLoc
		return nil
	})
	if err != nil {
		return nil, err
	}

	return &RunResult{C: kern.assemble(cBlocks, grid, rowsPer, colsPer), Sim: res}, nil
}
