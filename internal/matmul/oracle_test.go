package matmul

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// The oracle: TwoPointFiveD and TwoPointFiveDSUMMA as closure programs,
// one goroutine per rank, exactly as they ran before they became Steppers.
// TestSteppersMatchClosureOracle holds the Steppers to them bit for bit.

// twoPointFiveDClosure is TwoPointFiveD's closure program.
func twoPointFiveDClosure(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
	n, kern, err := checkSquare(a, b, q)
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
			aData = kern.block(a, row*nb, col*nb, nb, nb).Data
			bData = kern.block(b, row*nb, col*nb, nb, nb).Data
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
		cBlk := kern.zeros(nb, nb)
		for step := 0; step < stepsPerLayer; step++ {
			kern.mulAdd(cBlk, aBlk, bBlk)
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
	return &RunResult{C: kern.assemble(cBlocks, layer0, nb, nb), Sim: res}, nil
}

// twoPointFiveDSUMMAClosure is TwoPointFiveDSUMMA's closure program.
func twoPointFiveDSUMMAClosure(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
	n, kern, err := checkSquare(a, b, q)
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
			aData = kern.block(a, row*nb, col*nb, nb, nb).Data
			bData = kern.block(b, row*nb, col*nb, nb, nb).Data
		}
		aData = fiberComm.BcastLarge(0, aData)
		bData = fiberComm.BcastLarge(0, bData)
		aBlk := matrix.FromData(nb, nb, aData)
		bBlk := matrix.FromData(nb, nb, bData)

		r.Phase("summa")
		cBlk := kern.zeros(nb, nb)
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
			kern.mulAdd(cBlk, aWrap, bWrap)
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
	return &RunResult{C: kern.assemble(cBlocks, layer0, nb, nb), Sim: res}, nil
}

// streamRec digests every rank's observer stream in delivery order: an
// FNV-style fold of each event's fields. A rank's callbacks are
// serialized, so each rank folds into its own slot without a lock.
type streamRec struct{ ranks []uint64 }

func newStreamRec(p int) *streamRec { return &streamRec{ranks: make([]uint64, p)} }

func (o *streamRec) fold(rank int, vals ...uint64) {
	h := o.ranks[rank]
	for _, v := range vals {
		h = (h ^ v) * 1099511628211
	}
	o.ranks[rank] = h
}

func (o *streamRec) seg(rank int, cb uint64, s sim.Segment) {
	o.fold(rank, cb, uint64(s.Kind), math.Float64bits(s.Start), math.Float64bits(s.End),
		uint64(s.Peer), uint64(s.Words), math.Float64bits(s.Msgs), math.Float64bits(s.Flops))
}

func (o *streamRec) OnCompute(rank int, s sim.Segment) { o.seg(rank, 1, s) }
func (o *streamRec) OnSend(rank int, s sim.Segment)    { o.seg(rank, 2, s) }
func (o *streamRec) OnRecv(rank int, s sim.Segment)    { o.seg(rank, 3, s) }
func (o *streamRec) OnPhase(rank int, name string, at float64) {
	o.fold(rank, 4, math.Float64bits(at))
	for i := 0; i < len(name); i++ {
		o.fold(rank, uint64(name[i]))
	}
}
func (o *streamRec) OnFault(ev sim.FaultEvent) {
	o.fold(ev.Src, 5, uint64(ev.Kind), uint64(ev.Dst), uint64(ev.Seq), math.Float64bits(ev.Time), uint64(ev.Words))
}
func (o *streamRec) OnTimer(sim.TimerEvent)       {}
func (o *streamRec) OnCrash(sim.CrashEvent)       {}
func (o *streamRec) OnDeadlock(sim.DeadlockEvent) {}

// TestSteppersMatchClosureOracle holds both 2.5D Steppers to their closure
// twins bit for bit — product, per-rank Stats, ActivePairs and every
// rank's observer stream — on both hosts: stackless (no fault plan) and
// carried (an empty plan, whose conducts also take the faulted helpers).
// The grid covers numeric and phantom operands, 1/2/4 workers,
// ChargeReceiver, a MaxMsgWords that splits messages, a torus link model
// with c = q and one-word blocks (the broadcast and reduce fallbacks), c = 1
// (SUMMA's small-panel fallback) and p = 4,096.
func TestSteppersMatchClosureOracle(t *testing.T) {
	base := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	with := func(f func(*sim.Cost)) sim.Cost {
		c := base
		f(&c)
		return c
	}
	points := []struct {
		name      string
		q, c, n   int
		phantom   bool
		cost      sim.Cost
		workers   []int
		largeOnly bool
	}{
		{"numeric", 4, 2, 16, false, base, []int{1, 2, 4}, false},
		{"phantom", 4, 2, 16, true, base, []int{1, 2, 4}, false},
		{"charge-receiver", 4, 2, 16, false, with(func(c *sim.Cost) { c.ChargeReceiver = true }), []int{2}, false},
		{"split-messages", 4, 2, 16, false, with(func(c *sim.Cost) { c.MaxMsgWords = 3 }), []int{4}, false},
		{"torus-fallbacks", 4, 4, 4, false, with(func(c *sim.Cost) {
			c.Links = sim.Torus3DLinks{X: 4, Y: 4, Z: 4, AlphaPerHop: 1e-6, BetaPerWord: 1e-8}
		}), []int{2}, false},
		{"c=1", 4, 1, 4, false, base, []int{2}, false},
		{"p=4096", 32, 4, 128, true, base, []int{4}, true},
	}
	algs := []struct {
		name            string
		stepper, oracle func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error)
	}{
		{"TwoPointFiveD", TwoPointFiveD, twoPointFiveDClosure},
		{"TwoPointFiveDSUMMA", TwoPointFiveDSUMMA, twoPointFiveDSUMMAClosure},
	}
	for _, pt := range points {
		if pt.largeOnly && raceEnabled {
			continue // 4,096 carried ranks are slow under the race detector
		}
		a, b := randPair(pt.n, 41)
		if pt.phantom {
			a, b = Phantom(pt.n, pt.n), Phantom(pt.n, pt.n)
		}
		p := pt.q * pt.q * pt.c
		for _, alg := range algs {
			for _, faults := range []*sim.FaultPlan{nil, {}} {
				for _, w := range pt.workers {
					label := fmt.Sprintf("%s %s carried=%v workers=%d", pt.name, alg.name, faults != nil, w)
					run := func(f func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error)) (*RunResult, *streamRec) {
						rec := newStreamRec(p)
						cost := pt.cost
						cost.Workers, cost.Faults, cost.Observers = w, faults, []sim.Observer{rec}
						res, err := f(cost, pt.q, pt.c, a, b)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return res, rec
					}
					got, gotRec := run(alg.stepper)
					want, wantRec := run(alg.oracle)
					if (got.C == nil) != (want.C == nil) || (got.C != nil && got.C.MaxAbsDiff(want.C) != 0) {
						t.Errorf("%s: product differs from the oracle's", label)
					}
					if !slices.Equal(got.Sim.PerRank, want.Sim.PerRank) {
						t.Errorf("%s: per-rank Stats differ from the oracle's", label)
					}
					if got.Sim.ActivePairs != want.Sim.ActivePairs {
						t.Errorf("%s: ActivePairs %d, oracle %d", label, got.Sim.ActivePairs, want.Sim.ActivePairs)
					}
					if i := slices.Compare(gotRec.ranks, wantRec.ranks); i != 0 {
						t.Errorf("%s: observer streams differ from the oracle's", label)
					}
				}
			}
		}
	}
}
