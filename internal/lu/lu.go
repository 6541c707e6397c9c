// Package lu implements the paper's direct factorizations: LU without
// pivoting (stable for the diagonally dominant matrices used throughout) as
// the classical 2D fan-out algorithm on a q×q grid (Stacked at c = 1), a
// stacked-layer 2.5D-style variant that replicates partial sums across c
// layers to cut the bandwidth cost to O(n²/√(cp)) — the Section IV LU
// discussion — and a block-cyclic 2D variant. Distributed Cholesky, which
// the paper's Section III bounds also cover, lives here too. The serial
// blocked references the tests hold them to are in the test files.
//
// The paper's point about LU is that its bandwidth term strong-scales like
// matmul's while the latency term, tied to the length-q critical path of
// panel factorizations, does not. Both implementations expose exactly that:
// simulated message counts grow with √p no matter the replication factor.
package lu

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// Result bundles the factors with the simulation statistics.
type Result struct {
	L, U *matrix.Dense
	Sim  *sim.Result
}

// Stacked factors A on a q×q×c cuboid (p = q²·c): every layer accumulates
// a partial sum of the trailing matrix; step k's panels are summed across
// the fibers onto the active layer k mod c, which performs the 2D step and
// keeps the finished L/U panels. Each layer applies only its ⌈q/c⌉ share of
// the trailing updates, so per-rank flops and bandwidth both drop by c
// while the q-step critical path — the latency term — remains.
//
// c = 1 is the classical 2D fan-out algorithm on a q×q grid (p = q²): at
// step k the diagonal owner factors its block and broadcasts the triangular
// factors along row and column k; the panel owners solve for their L/U
// blocks and broadcast them along their own rows/columns; the trailing
// ranks apply the rank-nb update. q sequential steps give the non-scaling
// S = Θ(√p·log p) latency term of Section IV.
func Stacked(cost sim.Cost, q, c int, a *matrix.Dense) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("lu: non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if q <= 0 || n%q != 0 {
		return nil, fmt.Errorf("lu: size %d not divisible by grid %d", n, q)
	}
	if c < 1 || c > q {
		return nil, fmt.Errorf("lu: replication %d must be in [1, q=%d]", c, q)
	}
	nb := n / q
	grid, err := sim.NewGrid3D(q, c, q*q*c)
	if err != nil {
		return nil, err
	}
	final := make([]*matrix.Dense, q*q) // finished blocks, packed LU on diag

	res, err := sim.Run(q*q*c, cost, func(r *sim.Rank) error {
		row, col, layer := grid.Coords(r.ID())
		rowComm, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		colComm, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		fiberComm, err := grid.FiberComm(r)
		if err != nil {
			return err
		}
		r.Alloc(nb * nb)
		// Layer 0 starts with A; other layers with zero partial sums.
		var blk *matrix.Dense
		if layer == 0 {
			blk = a.Block(row*nb, col*nb, nb, nb)
		} else {
			blk = matrix.New(nb, nb)
		}

		done := false // this rank's block has been finalized
		for k := 0; k < q; k++ {
			r.Phase(fmt.Sprintf("step %d", k))
			active := k % c
			// Panel blocks: sum the c partials onto the active layer.
			if !done && (row == k || col == k) {
				total := fiberComm.ReduceLarge(active, blk.Data, sim.OpSum)
				if layer == active {
					blk = matrix.FromData(nb, nb, total)
				} else {
					blk = matrix.New(nb, nb) // contribution consumed
					done = true
				}
			}

			if layer == active {
				// Diagonal factorization and its broadcasts.
				if row == k && col == k {
					if err := matrix.LUInPlace(blk); err != nil {
						return fmt.Errorf("step %d: %w", k, err)
					}
					r.Compute(matrix.LUFlops(nb))
				}
				var diag *matrix.Dense
				if row == k {
					diag = matrix.FromData(nb, nb, rowComm.Bcast(k, blkDataIf(col == k, blk)))
				}
				if col == k {
					diag = matrix.FromData(nb, nb, colComm.Bcast(k, blkDataIf(row == k, blk)))
				}
				// Panel solves.
				if col == k && row > k {
					_, ukk := matrix.SplitLU(diag)
					matrix.TriSolveUpperRight(ukk, blk)
					r.Compute(matrix.TriSolveFlops(nb, nb))
				}
				if row == k && col > k {
					lkk, _ := matrix.SplitLU(diag)
					matrix.TriSolveLowerUnit(lkk, blk)
					r.Compute(matrix.TriSolveFlops(nb, nb))
				}
				// Panel broadcasts and trailing update.
				var lik, ukj *matrix.Dense
				if row > k {
					lik = matrix.FromData(nb, nb, rowComm.Bcast(k, blkDataIf(col == k, blk)))
				}
				if col > k {
					ukj = matrix.FromData(nb, nb, colComm.Bcast(k, blkDataIf(row == k, blk)))
				}
				if row > k && col > k {
					prod := matrix.Mul(lik, ukj)
					r.Compute(matrix.MulFlops(nb, nb, nb))
					blk.Sub(prod)
					r.Compute(float64(nb * nb))
				}
				// Finalize this step's panels.
				if !done && (row == k || col == k) {
					final[row*q+col] = blk
					done = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble L and U from the finalized blocks.
	l := matrix.New(n, n)
	u := matrix.New(n, n)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			blk := final[i*q+j]
			if blk == nil {
				return nil, fmt.Errorf("lu: block (%d,%d) never finalized", i, j)
			}
			switch {
			case i == j:
				lb, ub := matrix.SplitLU(blk)
				l.SetBlock(i*nb, j*nb, lb)
				u.SetBlock(i*nb, j*nb, ub)
			case i > j:
				l.SetBlock(i*nb, j*nb, blk)
			default:
				u.SetBlock(i*nb, j*nb, blk)
			}
		}
	}
	return &Result{L: l, U: u, Sim: res}, nil
}

// blkDataIf returns the block's data when cond holds (the caller is the
// broadcast root), else nil.
func blkDataIf(cond bool, blk *matrix.Dense) []float64 {
	if cond {
		return blk.Data
	}
	return nil
}
