package resilience

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// SUMMAARQResult bundles the assembled product, the simulation statistics,
// and the per-rank ARQ protocol counters of a drop-masked run.
type SUMMAARQResult struct {
	C   *matrix.Dense
	Sim *sim.Result
	// ARQ holds each rank's endpoint counters; Report sums them.
	ARQ []ARQStats
}

// Report returns the cluster-wide sum of the per-rank ARQ counters.
func (r *SUMMAARQResult) Report() ARQStats {
	var total ARQStats
	for _, s := range r.ARQ {
		total.Add(s)
	}
	return total
}

// SUMMAARQ computes C = A·B on a q×q grid with the SUMMA algorithm carried
// entirely over the timer-aware ARQ endpoint: every panel broadcast is a
// binomial tree of acknowledged, retransmit-on-timeout transfers. Unlike
// the raw-channel SUMMA — where a single silently dropped message hangs
// the run until the deadlock abort — a SUMMAARQ run under a lossy
// sim.FaultPlan completes, bit-identical to its fault-free self, with the
// retransmission and timeout costs priced into the normal counters.
//
// SUMMA is the deliberate choice of algorithm: its broadcasts are trees,
// and trees keep every ARQ conversation pairwise nested. Cannon-style
// shift rings interleave each rank's send with a receive from a different
// neighbour, which deadlocks once an ack wait can interpose — rings must
// stay on raw channels.
func SUMMAARQ(cost sim.Cost, q int, cfg ARQConfig, a, b *matrix.Dense) (*SUMMAARQResult, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return nil, fmt.Errorf("resilience: need equal square operands, got %dx%d and %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := a.Rows
	if q <= 0 || n%q != 0 {
		return nil, fmt.Errorf("resilience: matrix size %d not divisible by grid size %d", n, q)
	}
	nb := n / q
	p := q * q
	grid := sim.Grid2D{Rows: q, Cols: q}
	cBlocks := make([]*matrix.Dense, p)
	reports := make([]ARQStats, p)

	res, err := sim.Run(p, cost, func(r *sim.Rank) error {
		row, col := grid.Coords(r.ID())
		arq := NewARQ(r, cfg)
		defer func() { reports[r.ID()] = arq.Stats() }()
		r.Alloc(3 * nb * nb)
		aBlk := a.Block(row*nb, col*nb, nb, nb)
		bBlk := b.Block(row*nb, col*nb, nb, nb)
		cBlk := matrix.New(nb, nb)

		rowMembers := make([]int, q)
		colMembers := make([]int, q)
		for i := 0; i < q; i++ {
			rowMembers[i] = grid.RankAt(row, i)
			colMembers[i] = grid.RankAt(i, col)
		}

		for t := 0; t < q; t++ {
			// Phase marks are free when unobserved; campaign-style tooling
			// enumerates them as crash-injection candidates.
			r.Phase(fmt.Sprintf("panel-%d", t))
			aPanel, err := arq.Bcast(rowMembers, grid.RankAt(row, t), dataIf(col == t, aBlk))
			if err != nil {
				return err
			}
			bPanel, err := arq.Bcast(colMembers, grid.RankAt(t, col), dataIf(row == t, bBlk))
			if err != nil {
				return err
			}
			matrix.MulAdd(cBlk, matrix.FromData(nb, nb, aPanel), matrix.FromData(nb, nb, bPanel))
			r.Compute(matrix.MulFlops(nb, nb, nb))
		}
		cBlocks[r.ID()] = cBlk
		return nil
	})
	if err != nil {
		return nil, err
	}

	c := matrix.New(n, n)
	for id, blk := range cBlocks {
		brow, bcol := grid.Coords(id)
		c.SetBlock(brow*nb, bcol*nb, blk)
	}
	return &SUMMAARQResult{C: c, Sim: res, ARQ: reports}, nil
}
