package matmul

import (
	"fmt"
	"math"
	"slices"
	"strings"
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
		return &RunResult{Sim: res}, err
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
		return &RunResult{Sim: res}, err
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

// stepped25D runs TwoPointFiveD's Stepper, or TwoPointFiveDSUMMA's when
// summa, as they do, but keeps a failed run's Result, as the closure
// oracles above do, so that its Stats can be compared too.
func stepped25D(summa bool) func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error) {
	return func(cost sim.Cost, q, c int, a, b *matrix.Dense) (*RunResult, error) {
		run, err := newRun25D(q, c, a, b)
		if err != nil {
			return nil, err
		}
		res, err := sim.RunSteps(q*q*c, cost, func(int) sim.Stepper {
			if summa {
				return &summa25D{rank25D: rank25D{run: run}}
			}
			return &cannon25D{rank25D: rank25D{run: run}}
		})
		if err != nil {
			return &RunResult{Sim: res}, err
		}
		return &RunResult{C: run.kern.assemble(run.cBlocks, run.layer0, run.nb, run.nb), Sim: res}, nil
	}
}

// clockRec records the start of every segment of one rank.
type clockRec struct {
	rank   int
	clocks []float64
}

func (o *clockRec) OnCompute(rank int, s sim.Segment) { o.at(rank, s) }
func (o *clockRec) OnSend(rank int, s sim.Segment)    { o.at(rank, s) }
func (o *clockRec) OnRecv(rank int, s sim.Segment)    { o.at(rank, s) }
func (o *clockRec) OnPhase(int, string, float64)      {}
func (o *clockRec) OnFault(sim.FaultEvent)            {}
func (o *clockRec) OnTimer(sim.TimerEvent)            {}
func (o *clockRec) OnCrash(sim.CrashEvent)            {}
func (o *clockRec) OnDeadlock(sim.DeadlockEvent)      {}
func (o *clockRec) at(rank int, s sim.Segment) {
	if rank == o.rank {
		o.clocks = append(o.clocks, s.Start)
	}
}

// oraclePlans are the fault plans the Steppers are held to their oracles
// under on a q=4, c=2 grid: none, the empty plan, a degraded window,
// corruption, duplication, a drop on one row-shift link, and a respawn and
// a hard crash of rank 21 (a fiber's member 1) at 0 and at every clock
// run's fault-free run passes through, thinned to one in stride.
func oraclePlans(t *testing.T, run func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error),
	cost sim.Cost, a, b *matrix.Dense, stride int) map[string]*sim.FaultPlan {
	t.Helper()
	const victim = 21
	rec := &clockRec{rank: victim}
	cost.Observers = []sim.Observer{rec}
	if _, err := run(cost, 4, 2, a, b); err != nil {
		t.Fatal(err)
	}
	plans := map[string]*sim.FaultPlan{
		"fault-free": nil,
		"empty":      {},
		"degraded":   {Degraded: []sim.DegradedLink{{Src: -1, Dst: -1, From: 3e-6, Until: 2e-5, AlphaFactor: 3, BetaFactor: 2}}},
		"corrupt":    {Seed: 5, Links: []sim.LinkFault{{Src: -1, Dst: -1, CorruptProb: 0.5}}},
		"duplicate":  {Seed: 6, Links: []sim.LinkFault{{Src: -1, Dst: -1, DupProb: 0.5}}},
		"drop":       {Links: []sim.LinkFault{{Src: 22, Dst: victim, DropProb: 1}}},
	}
	clocks := append([]float64{0}, rec.clocks...)
	slices.Sort(clocks)
	clocks = slices.Compact(clocks)
	for i := 0; i < len(clocks); i += stride {
		at := clocks[i]
		plans[fmt.Sprintf("respawn at t=%g", at)] = &sim.FaultPlan{Crashes: map[int]float64{victim: at}, Respawn: true, RebootTime: 1e-6}
		plans[fmt.Sprintf("hard crash at t=%g", at)] = &sim.FaultPlan{Crashes: map[int]float64{victim: at}}
	}
	return plans
}

// mustComplete reports whether the oraclePlans row name is one under which
// the run has to complete: every row but the drop, the duplicate and the
// crashes.
func mustComplete(name string) bool {
	return name != "drop" && name != "duplicate" && !strings.Contains(name, "crash")
}

// TestSteppersMatchClosureOracle holds both 2.5D Steppers to their closure
// twins bit for bit — product (when the run completes), per-rank Stats,
// ActivePairs, every rank's observer stream and the error text. The grid
// covers numeric and phantom operands, 1/2/4 workers, ChargeReceiver, a
// MaxMsgWords that splits messages, a torus link model with c = q and
// one-word blocks (the broadcast and reduce fallbacks), c = 1 (SUMMA's
// small-panel fallback) and p = 4,096, each without a plan and under the
// empty one (whose conducts take the faulted helpers); and, at q=4, c=2 on
// 1 and 4 workers, every plan of oraclePlans.
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
		{"TwoPointFiveD", stepped25D(false), twoPointFiveDClosure},
		{"TwoPointFiveDSUMMA", stepped25D(true), twoPointFiveDSUMMAClosure},
	}
	compare := func(label string, p, q, c int, cost sim.Cost, a, b *matrix.Dense, complete bool,
		stepper, oracle func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error)) {
		t.Helper()
		run := func(f func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error)) (*RunResult, *streamRec, string) {
			rec := newStreamRec(p)
			cost.Observers = []sim.Observer{rec}
			res, err := f(cost, q, c, a, b)
			if err != nil {
				return res, rec, err.Error()
			}
			return res, rec, ""
		}
		got, gotRec, gotErr := run(stepper)
		want, wantRec, wantErr := run(oracle)
		if gotErr != wantErr {
			t.Fatalf("%s: error text differs from the oracle's\n  stepper: %s\n  oracle:  %s", label, gotErr, wantErr)
		}
		if complete && gotErr != "" {
			t.Fatalf("%s: run must complete: %s", label, gotErr)
		}
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
	for _, pt := range points {
		if pt.largeOnly && raceEnabled {
			continue // 4,096 closure ranks are slow under the race detector
		}
		a, b := randPair(pt.n, 41)
		if pt.phantom {
			a, b = Phantom(pt.n, pt.n), Phantom(pt.n, pt.n)
		}
		for _, alg := range algs {
			for _, faults := range []*sim.FaultPlan{nil, {}} {
				for _, w := range pt.workers {
					cost := pt.cost
					cost.Workers, cost.Faults = w, faults
					label := fmt.Sprintf("%s %s planned=%v workers=%d", pt.name, alg.name, faults != nil, w)
					compare(label, pt.q*pt.q*pt.c, pt.q, pt.c, cost, a, b, true, alg.stepper, alg.oracle)
				}
			}
		}
	}
	a, b := randPair(16, 41)
	for _, alg := range algs {
		for name, plan := range oraclePlans(t, alg.oracle, base, a, b, 2) {
			for _, w := range []int{1, 4} {
				cost := base
				cost.Workers, cost.Faults = w, plan
				compare(fmt.Sprintf("%s %s workers=%d", alg.name, name, w), 32, 4, 2, cost, a, b, mustComplete(name), alg.stepper, alg.oracle)
			}
		}
	}
}
