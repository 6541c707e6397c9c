package lu

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// TwoDCyclic factors A on a q×q grid with a block-cyclic layout: the
// matrix is tiled into nb×nb blocks and block (I, J) lives on rank
// (I mod q, J mod q) — the ScaLAPACK distribution. Unlike the plain block
// layout of Stacked at c = 1, every rank keeps working through the whole
// elimination, so per-rank flops stay balanced to within the tile
// granularity. The communication pattern is the same fan-out per block
// step; the critical path is n/nb sequential steps.
func TwoDCyclic(cost sim.Cost, q, nb int, a *matrix.Dense) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("lu: non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if nb <= 0 || n%nb != 0 {
		return nil, fmt.Errorf("lu: block size %d must divide n = %d", nb, n)
	}
	numBlocks := n / nb
	if q <= 0 || numBlocks < q {
		return nil, fmt.Errorf("lu: need at least %d blocks for a %dx%d grid", q, q, q)
	}
	grid := sim.Grid2D{Rows: q, Cols: q}
	finals := make([]map[tileKey]*matrix.Dense, q*q)

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
		// Local tiles.
		local := map[tileKey]*matrix.Dense{}
		owned := 0
		for I := row; I < numBlocks; I += q {
			for J := col; J < numBlocks; J += q {
				local[tileKey{I, J}] = a.Block(I*nb, J*nb, nb, nb)
				owned++
			}
		}
		r.Alloc(owned * nb * nb)

		for k := 0; k < numBlocks; k++ {
			kr, kc := k%q, k%q
			// Factor the diagonal tile on its owner; broadcast it along the
			// owner's grid row and column (the panels need L_kk resp. U_kk).
			if row == kr && col == kc {
				diag := local[tileKey{k, k}]
				if err := matrix.LUInPlace(diag); err != nil {
					return fmt.Errorf("step %d: %w", k, err)
				}
				r.Compute(matrix.LUFlops(nb))
			}
			var diag *matrix.Dense
			if row == kr {
				diag = matrix.FromData(nb, nb, rowComm.Bcast(kc, tileDataIf(row == kr && col == kc, local, tileKey{k, k})))
			}
			if col == kc {
				diag = matrix.FromData(nb, nb, colComm.Bcast(kr, tileDataIf(row == kr && col == kc, local, tileKey{k, k})))
			}
			// Column panel: tiles (I, k) for I > k on grid column kc.
			if col == kc {
				_, ukk := matrix.SplitLU(diag)
				for I := firstOwned(row, k+1, q); I < numBlocks; I += q {
					blk := local[tileKey{I, k}]
					matrix.TriSolveUpperRight(ukk, blk)
					r.Compute(matrix.TriSolveFlops(nb, nb))
				}
			}
			// Row panel: tiles (k, J) for J > k on grid row kr.
			if row == kr {
				lkk, _ := matrix.SplitLU(diag)
				for J := firstOwned(col, k+1, q); J < numBlocks; J += q {
					blk := local[tileKey{k, J}]
					matrix.TriSolveLowerUnit(lkk, blk)
					r.Compute(matrix.TriSolveFlops(nb, nb))
				}
			}
			// Broadcast the panels: L_Ik along grid row I%q (root column kc);
			// U_kJ along grid column J%q (root row kr). Every rank stores
			// the factors relevant to its trailing tiles.
			lPanel := map[int]*matrix.Dense{}
			for I := k + 1; I < numBlocks; I++ {
				if I%q != row {
					continue
				}
				data := rowComm.Bcast(kc, tileDataIf(col == kc, local, tileKey{I, k}))
				lPanel[I] = matrix.FromData(nb, nb, data)
			}
			uPanel := map[int]*matrix.Dense{}
			for J := k + 1; J < numBlocks; J++ {
				if J%q != col {
					continue
				}
				data := colComm.Bcast(kr, tileDataIf(row == kr, local, tileKey{k, J}))
				uPanel[J] = matrix.FromData(nb, nb, data)
			}
			// Trailing update on owned tiles.
			for I := firstOwned(row, k+1, q); I < numBlocks; I += q {
				for J := firstOwned(col, k+1, q); J < numBlocks; J += q {
					blk := local[tileKey{I, J}]
					prod := matrix.Mul(lPanel[I], uPanel[J])
					r.Compute(matrix.MulFlops(nb, nb, nb))
					blk.Sub(prod)
					r.Compute(float64(nb * nb))
				}
			}
		}
		finals[r.ID()] = local
		return nil
	})
	if err != nil {
		return nil, err
	}

	l := matrix.New(n, n)
	u := matrix.New(n, n)
	for _, local := range finals {
		for kk, blk := range local {
			switch {
			case kk.I == kk.J:
				lb, ub := matrix.SplitLU(blk)
				l.SetBlock(kk.I*nb, kk.J*nb, lb)
				u.SetBlock(kk.I*nb, kk.J*nb, ub)
			case kk.I > kk.J:
				l.SetBlock(kk.I*nb, kk.J*nb, blk)
			default:
				u.SetBlock(kk.I*nb, kk.J*nb, blk)
			}
		}
	}
	return &Result{L: l, U: u, Sim: res}, nil
}

// tileKey addresses one nb×nb tile by block coordinates.
type tileKey struct{ I, J int }

// firstOwned returns the smallest index ≥ from congruent to mine mod q.
func firstOwned(mine, from, q int) int {
	i := from
	for i%q != mine {
		i++
	}
	return i
}

// tileDataIf returns the tile's data when the caller is the broadcast root.
func tileDataIf(cond bool, local map[tileKey]*matrix.Dense, k tileKey) []float64 {
	if cond {
		return local[k].Data
	}
	return nil
}
