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
// c = 1 is Cannon's algorithm on a q×q grid, the paper's 2D baseline: the
// replication and reduction are over one-rank fibers and cost nothing, so
// what runs is the alignment permutation and q multiply-shift steps, with
// M = 3·(n/q)² words per rank, W = Θ(n²/√p) and S = Θ(√p). c = q (p = q³)
// reduces to the 3D algorithm with one multiply per layer. Requires c | q
// and q | n.
func TwoPointFiveD(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
	run, err := newRun25D(q, c, a, b)
	if err != nil {
		return nil, err
	}
	return run.run(cost, func(int) sim.Stepper { return &cannon25D{rank25D: rank25D{run: run}} })
}

// run25D is what every rank of one 2.5D run shares.
type run25D struct {
	q, c, nb int
	grid     sim.Grid3D
	layer0   sim.Grid2D
	kern     kernels
	a, b     *matrix.Dense
	cBlocks  []*matrix.Dense
}

// newRun25D validates a 2.5D run on a q×q×c cuboid.
func newRun25D(q, c int, a, b *matrix.Dense) (*run25D, error) {
	n, kern, err := checkSquare(a, b, q)
	if err != nil {
		return nil, err
	}
	if c <= 0 || q%c != 0 {
		return nil, fmt.Errorf("matmul: replication factor %d must divide grid size %d", c, q)
	}
	grid, err := sim.NewGrid3D(q, c, q*q*c)
	if err != nil {
		return nil, err
	}
	return &run25D{q: q, c: c, nb: n / q, grid: grid, layer0: grid.LayerGrid(), kern: kern,
		a: a, b: b, cBlocks: make([]*matrix.Dense, q*q)}, nil
}

// run steps one program per rank (sim.RunSteps: no goroutine per rank,
// under any fault plan) and assembles the product from layer 0's C blocks.
func (run *run25D) run(cost sim.Cost, start func(id int) sim.Stepper) (*RunResult, error) {
	res, err := sim.RunSteps(run.q*run.q*run.c, cost, start)
	if err != nil {
		return nil, err
	}
	return &RunResult{C: run.kern.assemble(run.cBlocks, run.layer0, run.nb, run.nb), Sim: res}, nil
}

// Program counters of the 2.5D steppers: both variants begin, replicate A
// and B, and end in the reduce; between them Cannon aligns and then
// multiplies and shifts, and SUMMA broadcasts two panels per multiply.
const (
	pcBegin = iota
	pcReplicateA
	pcReplicateB
	pcSendA
	pcSendB
	pcRecvA
	pcRecvB
	pcMultiply
	pcShiftA
	pcShiftB
	pcPanelA
	pcPanelB
	pcReduce
)

// rank25D is the state both 2.5D steppers share: the run, the rank's place
// in its program (pc, and step within the middle loop), its coordinates,
// communicators and blocks.
type rank25D struct {
	run                     *run25D
	pc, step                int
	row, col, layer         int
	rowComm, colComm, fiber *sim.Comm
	aData, bData            []float64
	cBlk                    *matrix.Dense
}

// begin opens a 2.5D rank's program: its communicators, its tracked
// footprint and, on layer 0, its blocks of A and B.
func (s *rank25D) begin(r *sim.Rank) error {
	run, nb := s.run, s.run.nb
	s.row, s.col, s.layer = run.grid.Coords(r.ID())
	var err error
	if s.rowComm, err = run.grid.RowComm(r); err != nil {
		return err
	}
	if s.colComm, err = run.grid.ColComm(r); err != nil {
		return err
	}
	if s.fiber, err = run.grid.FiberComm(r); err != nil {
		return err
	}
	// Every rank stores its A, B and C blocks: 3·(n/q)² words, which is
	// the replicated footprint M = 3c·n²/p.
	r.Alloc(3 * nb * nb)
	r.Phase("replicate")
	if s.layer == 0 {
		s.aData = run.kern.block(run.a, s.row*nb, s.col*nb, nb, nb).Data
		s.bData = run.kern.block(run.b, s.row*nb, s.col*nb, nb, nb).Data
	}
	return nil
}

// replicate is step 1 for one operand: its layer-0 block is broadcast down
// the fiber into *data. False while the broadcast waits.
func (s *rank25D) replicate(data *[]float64) bool {
	v, ok := s.fiber.TryBcastLargeInto(nil, 0, *data)
	if ok {
		*data = v
	}
	return ok
}

// reduce is step 3: the partial C blocks are summed across the fiber onto
// layer 0. False while the reduction waits.
func (s *rank25D) reduce() bool {
	sum, ok := s.fiber.TryReduceLarge(0, s.cBlk.Data, sim.OpSum)
	if ok && s.layer == 0 {
		run := s.run
		run.cBlocks[run.layer0.RankAt(s.row, s.col)] = matrix.FromData(run.nb, run.nb, sum)
	}
	return ok
}

// cannon25D is one rank of TwoPointFiveD.
type cannon25D struct {
	rank25D
	aBlk, bBlk *matrix.Dense
}

// Step runs the rank's program up to its next wait.
func (s *cannon25D) Step(r *sim.Rank) (bool, error) {
	run, nb := s.run, s.run.nb
	q, steps := run.q, run.q/run.c
	for {
		// Layer l starts at outer-product offset l·(q/c): rank (i,j,l)
		// must hold A(i, (j+i+off) mod q) and B((i+j+off) mod q, j).
		off := s.layer * steps
		switch s.pc {
		case pcBegin:
			if err := s.begin(r); err != nil {
				return false, err
			}
			s.pc = pcReplicateA
		case pcReplicateA:
			if !s.replicate(&s.aData) {
				return false, nil
			}
			s.pc = pcReplicateB
		case pcReplicateB:
			if !s.replicate(&s.bData) {
				return false, nil
			}
			// Step 2: per-layer alignment. Each rank forwards its blocks to
			// the ranks that need them — a permutation within the layer.
			r.Phase("align")
			s.pc = pcSendA
		case pcSendA:
			if !r.TrySend(run.grid.RankAt(s.row, mod(s.col-s.row-off, q), s.layer), s.aData) {
				return false, nil
			}
			s.pc = pcSendB
		case pcSendB:
			if !r.TrySend(run.grid.RankAt(mod(s.row-s.col-off, q), s.col, s.layer), s.bData) {
				return false, nil
			}
			s.pc = pcRecvA
		case pcRecvA:
			v, ok := r.TryRecv(run.grid.RankAt(s.row, mod(s.col+s.row+off, q), s.layer))
			if !ok {
				return false, nil
			}
			s.aBlk, s.pc = matrix.FromData(nb, nb, v), pcRecvB
		case pcRecvB:
			v, ok := r.TryRecv(run.grid.RankAt(mod(s.row+s.col+off, q), s.col, s.layer))
			if !ok {
				return false, nil
			}
			s.bBlk = matrix.FromData(nb, nb, v)
			r.Phase("multiply-shift")
			s.cBlk, s.pc = run.kern.zeros(nb, nb), pcMultiply
		case pcMultiply:
			run.kern.mulAdd(s.cBlk, s.aBlk, s.bBlk)
			r.Compute(matrix.MulFlops(nb, nb, nb))
			if s.step++; s.step < steps {
				s.pc = pcShiftA
				break
			}
			// Step 3: sum partials across the fiber onto layer 0.
			r.Phase("reduce")
			s.pc = pcReduce
		case pcShiftA:
			// The shifts swap the blocks' backing buffers in place: a
			// fresh wrapper per shift would put ~2·p·q header objects per
			// run on the garbage collector for no observable difference.
			v, ok := s.rowComm.TryShiftOwned(s.aBlk.Data, -1)
			if !ok {
				return false, nil
			}
			s.aBlk.Data, s.pc = v, pcShiftB
		case pcShiftB:
			v, ok := s.colComm.TryShiftOwned(s.bBlk.Data, -1)
			if !ok {
				return false, nil
			}
			s.bBlk.Data, s.pc = v, pcMultiply
		default:
			return s.reduce(), nil
		}
	}
}

// ThreeD multiplies on a q×q×q cube of p = q³ ranks with the 3D algorithm
// of Agarwal et al.: A(i,k) is broadcast to all ranks (i,·,k), B(k,j) to
// all ranks (·,j,k); rank (i,j,k) computes the single product
// A(i,k)·B(k,j); C(i,j) is reduced over k. Uses the maximum memory
// M = Θ(n²/p^(2/3)) and attains W = Θ(n²/p^(2/3)).
func ThreeD(cost sim.Cost, q int, a, b *matrix.Dense) (*RunResult, error) {
	n, kern, err := checkSquare(a, b, q)
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
			aOwn := kern.block(a, row*nb, col*nb, nb, nb).Data
			bOwn := kern.block(b, row*nb, col*nb, nb, nb).Data
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
		cBlk := kern.zeros(nb, nb)
		kern.mulAdd(cBlk, matrix.FromData(nb, nb, aData), matrix.FromData(nb, nb, bData))
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
	return &RunResult{C: kern.assemble(cBlocks, layer0, nb, nb), Sim: res}, nil
}

// mod returns x modulo q in [0, q).
func mod(x, q int) int { return ((x % q) + q) % q }

// TwoPointFiveDSUMMA is the broadcast-based variant of the 2.5D algorithm:
// after the same fiber replication, each layer covers its q/c outer-product
// panels with SUMMA broadcasts instead of Cannon's alignment+shift
// pipeline, and the partial results reduce over fibers as before. Same
// asymptotic costs; the ablation contrasts broadcast trees against
// point-to-point shifts (the log c / log q latency factors the paper's
// footnote 4 mentions). c = 1 is 2D SUMMA: q outer steps, each broadcasting
// a block column of A along rows and a block row of B along columns.
func TwoPointFiveDSUMMA(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
	run, err := newRun25D(q, c, a, b)
	if err != nil {
		return nil, err
	}
	return run.run(cost, func(int) sim.Stepper { return &summa25D{rank25D: rank25D{run: run}} })
}

// summa25D is one rank of TwoPointFiveDSUMMA.
type summa25D struct {
	rank25D
	aBlk, bBlk *matrix.Dense
	// A panel is read once by MulAdd and dropped, so each step receives
	// into the buffer the previous step's panel occupied: two receive
	// buffers per rank, allocated by the first step, and never the
	// replicated blocks, which are the broadcasts' sources.
	aWrap, bWrap *matrix.Dense
}

// Step runs the rank's program up to its next wait.
func (s *summa25D) Step(r *sim.Rank) (bool, error) {
	run, nb := s.run, s.run.nb
	panels := run.q / run.c
	for {
		t := s.layer*panels + s.step // the panel this step broadcasts
		switch s.pc {
		case pcBegin:
			if err := s.begin(r); err != nil {
				return false, err
			}
			s.pc = pcReplicateA
		case pcReplicateA:
			if !s.replicate(&s.aData) {
				return false, nil
			}
			s.pc = pcReplicateB
		case pcReplicateB:
			if !s.replicate(&s.bData) {
				return false, nil
			}
			s.aBlk = matrix.FromData(nb, nb, s.aData)
			s.bBlk = matrix.FromData(nb, nb, s.bData)
			r.Phase("summa")
			s.cBlk = run.kern.zeros(nb, nb)
			s.aWrap = &matrix.Dense{Rows: nb, Cols: nb}
			s.bWrap = &matrix.Dense{Rows: nb, Cols: nb}
			s.pc = pcPanelA
		case pcPanelA:
			v, ok := s.rowComm.TryBcastLargeInto(s.aWrap.Data, t, blockIf(s.col == t, s.aBlk))
			if !ok {
				return false, nil
			}
			s.aWrap.Data, s.pc = v, pcPanelB
		case pcPanelB:
			v, ok := s.colComm.TryBcastLargeInto(s.bWrap.Data, t, blockIf(s.row == t, s.bBlk))
			if !ok {
				return false, nil
			}
			s.bWrap.Data = v
			run.kern.mulAdd(s.cBlk, s.aWrap, s.bWrap)
			r.Compute(matrix.MulFlops(nb, nb, nb))
			if s.step++; s.step < panels {
				s.pc = pcPanelA
				break
			}
			r.Phase("reduce")
			s.pc = pcReduce
		default:
			return s.reduce(), nil
		}
	}
}

// blockIf returns the block's data when cond holds, else nil.
func blockIf(cond bool, blk *matrix.Dense) []float64 {
	if cond {
		return blk.Data
	}
	return nil
}
