package lu

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// The paper's Section III notes its communication bounds cover "LU,
// Cholesky, LDLᵀ and QR decompositions"; Cholesky shares LU's cost shape
// (half the flops, same Θ(n³/(p√M)) words, same non-scaling latency
// critical path). This file provides the 2D fan-out distributed version.

// Cholesky factors a symmetric positive-definite A on a q×q grid (p = q²)
// with the fan-out algorithm: at step k the diagonal owner factors its
// block and broadcasts L_kk down column k; the panel owners solve
// L_ik = A_ik·L_kk⁻ᵀ and broadcast along their rows; each L_jk also hops to
// the diagonal (j,j) and broadcasts down column j so the symmetric update
// A_ij −= L_ik·L_jkᵀ has both factors everywhere it is needed. The q-step
// critical path gives the same non-scaling latency as LU.
func Cholesky(cost sim.Cost, q int, a *matrix.Dense) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("lu: non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if q <= 0 || n%q != 0 {
		return nil, fmt.Errorf("lu: size %d not divisible by grid %d", n, q)
	}
	nb := n / q
	grid := sim.Grid2D{Rows: q, Cols: q}
	final := make([]*matrix.Dense, q*q)

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
		r.Alloc(nb * nb)
		blk := a.Block(row*nb, col*nb, nb, nb)
		done := false

		for k := 0; k < q; k++ {
			// Diagonal factorization; L_kk broadcast down column k.
			if row == k && col == k {
				if err := matrix.CholeskyInPlace(blk); err != nil {
					return fmt.Errorf("step %d: %w", k, err)
				}
				r.Compute(matrix.CholeskyFlops(nb))
				blk = blk.LowerTriangle()
				final[row*q+col] = blk
				done = true
			}
			var lkk *matrix.Dense
			if col == k {
				lkk = matrix.FromData(nb, nb, colComm.Bcast(k, blkDataIf(row == k, blk)))
			}
			// Panel solves on column k below the diagonal.
			if col == k && row > k {
				matrix.TriSolveUpperRight(lkk.Transpose(), blk)
				r.Compute(matrix.TriSolveFlops(nb, nb))
				final[row*q+col] = blk
				done = true
			}
			// L_ik travels along row i (the "left factor"); every rank in a
			// row i > k participates.
			var lik *matrix.Dense
			if row > k {
				lik = matrix.FromData(nb, nb, rowComm.Bcast(k, blkDataIf(col == k, blk)))
			}
			// L_jk reaches (j,j) and goes down column j (the "right
			// factor"): panel rank (j,k) sends to the diagonal rank, which
			// broadcasts along its column to every (i,j), i > j.
			if col == k && row > k {
				r.Send(grid.RankAt(row, row), blk.Data)
			}
			var ljk *matrix.Dense
			if row == col && row > k {
				ljk = matrix.FromData(nb, nb, r.Recv(grid.RankAt(row, k)))
			}
			if col > k {
				ljk = matrix.FromData(nb, nb, colComm.Bcast(col, blkDataIf(row == col, dataOrNil(ljk))))
			}
			// Symmetric trailing update on the lower triangle.
			if row > k && col > k && row >= col && !done {
				prod := matrix.Mul(lik, ljk.Transpose())
				r.Compute(matrix.MulFlops(nb, nb, nb))
				blk.Sub(prod)
				r.Compute(float64(nb * nb))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	l := matrix.New(n, n)
	for i := 0; i < q; i++ {
		for j := 0; j <= i; j++ {
			blk := final[i*q+j]
			if blk == nil {
				return nil, fmt.Errorf("lu: cholesky block (%d,%d) never finalized", i, j)
			}
			l.SetBlock(i*nb, j*nb, blk)
		}
	}
	return &Result{L: l, U: l.Transpose(), Sim: res}, nil
}

// dataOrNil unwraps a possibly-nil block.
func dataOrNil(m *matrix.Dense) *matrix.Dense {
	if m == nil {
		return matrix.New(0, 0)
	}
	return m
}
