package matmul

import (
	"fmt"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// TwoPointFiveD multiplies on a q×q×c cuboid of p = q²·c ranks with the
// 2.5D algorithm of Solomonik and Demmel:
//
//  1. A and B live on layer 0 in q×q blocks; they are replicated to all c
//     layers over binomial trees on the fibers (the "use extra memory"
//     step — each rank now stores M = Θ(c·n²/p) words);
//  2. layer l runs q/c Cannon-style multiply-shift steps starting from an
//     alignment offset by l·q/c, so the c layers jointly cover all q outer
//     products without overlap;
//  3. the partial C blocks are summed across fibers back to layer 0.
//
// c = 1 reduces to Cannon; c = q (p = q³) reduces to the 3D algorithm with
// one multiply per layer. Requires c | q and q | n.
func TwoPointFiveD(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
	n, err := checkSquare(a, b, q)
	if err != nil {
		return nil, err
	}
	if c <= 0 || q%c != 0 {
		return nil, fmt.Errorf("matmul: replication factor %d must divide grid size %d", c, q)
	}
	nb := n / q
	grid, err := sim.NewGrid3D(q, c, q*q*c)
	if err != nil {
		return nil, err
	}
	layer0 := grid.LayerGrid()
	cBlocks := make([]*matrix.Dense, q*q)
	stepsPerLayer := q / c

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
		// Every rank stores its A, B and C blocks: 3·(n/q)² words, which is
		// the replicated footprint M = 3c·n²/p.
		r.Alloc(3 * nb * nb)

		// Step 1: replicate the layer-0 blocks down the fibers.
		r.Phase("replicate")
		var aData, bData []float64
		if layer == 0 {
			aData = a.Block(row*nb, col*nb, nb, nb).Data
			bData = b.Block(row*nb, col*nb, nb, nb).Data
		}
		aData = fiberComm.BcastLarge(0, aData)
		bData = fiberComm.BcastLarge(0, bData)

		// Step 2: per-layer alignment. Layer l starts at outer-product
		// offset l·(q/c): rank (i,j,l) must hold A(i, (j+i+off) mod q) and
		// B((i+j+off) mod q, j). Each rank forwards its block to the rank
		// that needs it — a permutation within the layer.
		r.Phase("align")
		off := layer * stepsPerLayer
		aDst := grid.RankAt(row, mod(col-row-off, q), layer)
		bDst := grid.RankAt(mod(row-col-off, q), col, layer)
		r.Send(aDst, aData)
		r.Send(bDst, bData)
		aBlk := matrix.FromData(nb, nb, r.Recv(grid.RankAt(row, mod(col+row+off, q), layer)))
		bBlk := matrix.FromData(nb, nb, r.Recv(grid.RankAt(mod(row+col+off, q), col, layer)))

		r.Phase("multiply-shift")
		cBlk := matrix.New(nb, nb)
		for step := 0; step < stepsPerLayer; step++ {
			matrix.MulAdd(cBlk, aBlk, bBlk)
			r.Compute(matrix.MulFlops(nb, nb, nb))
			if step < stepsPerLayer-1 {
				// Swap the backing buffers in place: allocating a fresh
				// wrapper per shift put ~2·p·q header objects per run on
				// the garbage collector for no observable difference.
				aBlk.Data = rowComm.ShiftOwned(aBlk.Data, -1)
				bBlk.Data = colComm.ShiftOwned(bBlk.Data, -1)
			}
		}

		// Step 3: sum partials across the fiber onto layer 0.
		r.Phase("reduce")
		sum := fiberComm.ReduceLarge(0, cBlk.Data, sim.OpSum)
		if layer == 0 {
			cBlocks[layer0.RankAt(row, col)] = matrix.FromData(nb, nb, sum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{C: assemble(cBlocks, layer0, nb), Sim: res}, nil
}

// ThreeD multiplies on a q×q×q cube of p = q³ ranks with the 3D algorithm
// of Agarwal et al.: A(i,k) is broadcast to all ranks (i,·,k), B(k,j) to
// all ranks (·,j,k); rank (i,j,k) computes the single product
// A(i,k)·B(k,j); C(i,j) is reduced over k. Uses the maximum memory
// M = Θ(n²/p^(2/3)) and attains W = Θ(n²/p^(2/3)).
func ThreeD(cost sim.Cost, q int, a, b *matrix.Dense) (*RunResult, error) {
	n, err := checkSquare(a, b, q)
	if err != nil {
		return nil, err
	}
	nb := n / q
	grid, err := sim.NewGrid3D(q, q, q*q*q)
	if err != nil {
		return nil, err
	}
	layer0 := grid.LayerGrid()
	cBlocks := make([]*matrix.Dense, q*q)

	res, err := sim.Run(q*q*q, cost, func(r *sim.Rank) error {
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
		r.Alloc(3 * nb * nb)

		// Owners on layer 0 ship A(i,k) to (i,k,k) and B(k,j) to (k,j,k),
		// which then broadcast within layer k.
		r.Phase("distribute")
		if layer == 0 {
			aOwn := a.Block(row*nb, col*nb, nb, nb).Data
			bOwn := b.Block(row*nb, col*nb, nb, nb).Data
			// A(row,col) is needed on layer `col`; B(row,col) on layer `row`.
			r.Send(grid.RankAt(row, col, col), aOwn)
			r.Send(grid.RankAt(row, col, row), bOwn)
		}
		var aSeed, bSeed []float64
		if layer == col {
			aSeed = r.Recv(grid.RankAt(row, col, 0))
		}
		if layer == row {
			bSeed = r.Recv(grid.RankAt(row, col, 0))
		}
		// Rank (i,j,k) needs A(i,k): held by (i,k,k); broadcast along the
		// row (fixed i, fixed k, varying j) from member j = k.
		r.Phase("broadcast")
		aData := rowComm.BcastLarge(layer, aSeed)
		// And B(k,j): held by (k,j,k); broadcast along the column from
		// member i = k.
		bData := colComm.BcastLarge(layer, bSeed)

		r.Phase("multiply")
		cBlk := matrix.New(nb, nb)
		matrix.MulAdd(cBlk, matrix.FromData(nb, nb, aData), matrix.FromData(nb, nb, bData))
		r.Compute(matrix.MulFlops(nb, nb, nb))

		r.Phase("reduce")
		sum := fiberComm.ReduceLarge(0, cBlk.Data, sim.OpSum)
		if layer == 0 {
			cBlocks[layer0.RankAt(row, col)] = matrix.FromData(nb, nb, sum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{C: assemble(cBlocks, layer0, nb), Sim: res}, nil
}

// mod returns x modulo q in [0, q).
func mod(x, q int) int { return ((x % q) + q) % q }

// TwoPointFiveDSUMMA is the broadcast-based variant of the 2.5D algorithm:
// after the same fiber replication, each layer covers its q/c outer-product
// panels with SUMMA broadcasts instead of Cannon's alignment+shift
// pipeline, and the partial results reduce over fibers as before. Same
// asymptotic costs; the ablation contrasts broadcast trees against
// point-to-point shifts (the log c / log q latency factors the paper's
// footnote 4 mentions).
func TwoPointFiveDSUMMA(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
	n, err := checkSquare(a, b, q)
	if err != nil {
		return nil, err
	}
	if c <= 0 || q%c != 0 {
		return nil, fmt.Errorf("matmul: replication factor %d must divide grid size %d", c, q)
	}
	nb := n / q
	grid, err := sim.NewGrid3D(q, c, q*q*c)
	if err != nil {
		return nil, err
	}
	layer0 := grid.LayerGrid()
	cBlocks := make([]*matrix.Dense, q*q)
	panelsPerLayer := q / c

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
		r.Alloc(3 * nb * nb)

		r.Phase("replicate")
		var aData, bData []float64
		if layer == 0 {
			aData = a.Block(row*nb, col*nb, nb, nb).Data
			bData = b.Block(row*nb, col*nb, nb, nb).Data
		}
		aData = fiberComm.BcastLarge(0, aData)
		bData = fiberComm.BcastLarge(0, bData)
		aBlk := matrix.FromData(nb, nb, aData)
		bBlk := matrix.FromData(nb, nb, bData)

		r.Phase("summa")
		cBlk := matrix.New(nb, nb)
		// A panel is read once by MulAdd and dropped, so each step receives
		// into the buffer the previous step's panel occupied: two receive
		// buffers per rank, allocated by the first step, and never the
		// replicated blocks, which are the broadcasts' sources.
		aWrap := &matrix.Dense{Rows: nb, Cols: nb}
		bWrap := &matrix.Dense{Rows: nb, Cols: nb}
		for s := 0; s < panelsPerLayer; s++ {
			t := layer*panelsPerLayer + s
			aWrap.Data = rowComm.BcastLargeInto(aWrap.Data, t, blockIf(col == t, aBlk))
			bWrap.Data = colComm.BcastLargeInto(bWrap.Data, t, blockIf(row == t, bBlk))
			matrix.MulAdd(cBlk, aWrap, bWrap)
			r.Compute(matrix.MulFlops(nb, nb, nb))
		}

		r.Phase("reduce")
		sum := fiberComm.ReduceLarge(0, cBlk.Data, sim.OpSum)
		if layer == 0 {
			cBlocks[layer0.RankAt(row, col)] = matrix.FromData(nb, nb, sum)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{C: assemble(cBlocks, layer0, nb), Sim: res}, nil
}

// blockIf returns the block's data when cond holds, else nil.
func blockIf(cond bool, blk *matrix.Dense) []float64 {
	if cond {
		return blk.Data
	}
	return nil
}
