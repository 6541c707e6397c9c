package conformance

import (
	"fmt"
	"math"
	"math/bits"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/fft"
	"perfscale/internal/lu"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

// expectation is one differential comparison: a measured quantity against
// its analytic model with a stated tolerance band on the ratio.
type expectation struct {
	quantity string
	got      float64
	model    float64
	band     Band
	detail   string
}

// algRun is the outcome of executing one algorithm at one point: the raw
// simulation result plus the analytic expectations the differential family
// checks against it.
type algRun struct {
	res *sim.Result
	// expects lists the model comparisons for this point.
	expects []expectation
	// lower is the composite of exact-constant communication lower bounds
	// applicable to this run; the bounds family asserts the busiest rank's
	// words moved (sent + received) never fall below its maximum. An empty
	// set skips the floor check.
	lower bounds.BoundSet
}

// algorithmDef couples a sweep grid with an executor.
type algorithmDef struct {
	name   string
	points func(l Level) []Point
	run    func(cost sim.Cost, m machine.Params, pt Point) (*algRun, error)
}

// algorithms is the registry the sweep iterates. The ratio bands pinned
// below are golden constants measured from the implementations (see
// docs/CONFORMANCE.md for the calibration procedure); they are deliberately
// tighter than a factor of two so that a lost message, a double-charged
// word or a mispriced operation moves the ratio out of its band.
var algorithms = []algorithmDef{
	{name: "matmul-2.5d", points: matmul25DPoints, run: runMatMul25D},
	{name: "matmul-3d", points: matmul3DPoints, run: runMatMul3D},
	{name: "matmul-summa-2.5d", points: matmul25DPoints, run: runMatMulSUMMA},
	{name: "matmul-summa-rect", points: matmulRectPoints, run: runMatMulRect},
	{name: "caps", points: capsPoints, run: runCAPS},
	{name: "lu-stacked", points: luPoints, run: runLU},
	{name: "nbody", points: nbodyPoints, run: runNBody},
	{name: "fft", points: fftPoints, run: runFFT},
}

// --- 2.5D / SUMMA matmul ----------------------------------------------------

func matmul25DPoints(l Level) []Point {
	pts := []Point{
		{N: 48, Q: 4, C: 1, P: 16},
		{N: 48, Q: 4, C: 2, P: 32},
		{N: 48, Q: 4, C: 4, P: 64},
	}
	if l == Full {
		pts = append(pts,
			Point{N: 96, Q: 8, C: 1, P: 64},
			Point{N: 96, Q: 8, C: 2, P: 128},
			Point{N: 96, Q: 8, C: 4, P: 256},
			Point{N: 96, Q: 8, C: 8, P: 512},
		)
	}
	return pts
}

// matmulExpectations builds the shared expectation set for the classical
// matmul variants: F against the exact multiply-add count, M against the
// exact tracked footprint, W/S/T/E against the Eq. 7/8 shapes with
// per-variant constant bands.
func matmulExpectations(m machine.Params, pt Point, res *sim.Result, wBand, sBand, tBand, eBand Band) []expectation {
	n, p, c := float64(pt.N), float64(pt.P), float64(pt.C)
	nb := pt.N / pt.Q
	s := res.MaxStats()
	model := bounds.MatMul25D(n, p, c)
	modelMem := 3 * float64(nb) * float64(nb)
	eval := core.Eval(m, model, p, modelMem)
	return []expectation{
		// Every rank multiplies its (n/q)³ share with multiply-adds — exactly
		// 2·n³/p flops — and for c > 1 combines the fiber reduce-scatter's
		// c−1 incoming chunks of nb²/c words at one flop per element.
		{quantity: "F", got: s.Flops, model: 2*n*n*n/p + reduceCombineFlops(nb, pt.C),
			band:   exactBand,
			detail: "busiest-rank flops vs exact multiply-adds 2n³/p + reduce combines (c−1)·nb²/c"},
		// The tracked footprint is exactly the 3 resident blocks.
		{quantity: "M", got: s.PeakMemWords, model: modelMem,
			band:   exactBand,
			detail: "peak tracked words vs exact 3·(n/q)² resident blocks"},
		{quantity: "W", got: s.WordsSent, model: model.Words,
			band:   wBand,
			detail: "busiest-rank words sent vs Eq. 7 W = n²/√(cp)"},
		{quantity: "S", got: s.MsgsSent, model: model.Msgs,
			band:   sBand,
			detail: "busiest-rank messages vs Eq. 7 S = √(p/c³) + log₂c"},
		{quantity: "T", got: res.Time(), model: eval.TotalTime(),
			band:   tBand,
			detail: "simulated runtime vs Eq. 1 priced on the Eq. 7 costs"},
		{quantity: "E", got: core.PriceSim(m, res).Total(), model: eval.TotalEnergy(),
			band:   eBand,
			detail: "priced energy vs Eq. 2 on the Eq. 7 costs"},
	}
}

func runMatMul25D(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	a := matrix.Random(pt.N, pt.N, 1)
	b := matrix.Random(pt.N, pt.N, 2)
	r, err := matmul.TwoPointFiveD(cost, pt.Q, pt.C, a, b)
	if err != nil {
		return nil, err
	}
	if d := r.C.MaxAbsDiff(matmul.Serial(a, b)); d > 1e-9*float64(pt.N) {
		return nil, fmt.Errorf("numerical mismatch vs serial: %g", d)
	}
	// Cannon-style 2.5D: replicate + align + 2(q/c−1) shifts + reduce.
	expects := matmulExpectations(m, pt, r.Sim,
		Band{1.8, 7}, Band{1.8, 12}, Band{1.8, 12}, Band{1.8, 6.5})
	if w, s, ok := cannonExact(pt.Q, pt.C, pt.N/pt.Q); ok {
		stats := r.Sim.MaxStats()
		expects = append(expects,
			expectation{quantity: "W", got: stats.WordsSent, model: w,
				band:   exactBand,
				detail: "busiest-rank words vs the exact replicate+align+shift+reduce count"},
			expectation{quantity: "S", got: stats.MsgsSent, model: s,
				band:   exactBand,
				detail: "busiest-rank messages vs the exact collective schedule count"},
		)
	}
	return &algRun{
		res:     r.Sim,
		expects: expects,
		lower:   classicalBounds(pt),
	}, nil
}

// cannonExact returns the exact words and messages the busiest rank of
// matmul.TwoPointFiveD sends — a layer-0 fiber root, which pays the
// BcastLarge root duties on top of the symmetric alignment, shift and
// reduce-scatter traffic every rank shares. With k = nb² block words:
//
//	c = 1: align (2 blocks) + 2(q−1) shift steps, all of k words;
//	c > 1: two replicate BcastLarges (a ⌈log2 c⌉-message one-word size
//	       announcement, a c−1-chunk scatter and a c−1-step ring
//	       all-gather of k/c words each), the same align and shift
//	       traffic, and the fiber ReduceLarge's c−1 ring chunks.
//
// Exactness requires the collectives' large-payload path (k ≥ c, c | k)
// and unfragmented messages (every sweep machine has MaxMsgWords far above
// any block); ok is false when the small-payload fallback would engage.
func cannonExact(q, c, nb int) (words, msgs float64, ok bool) {
	k := nb * nb
	if c == 1 {
		return float64(2 * q * k), float64(2 * q), true
	}
	if k < c || k%c != 0 {
		return 0, 0, false
	}
	kc := k / c
	rounds := bits.Len(uint(c - 1))
	words = float64(2*(rounds+2*(c-1)*kc) + 2*k + 2*(q/c-1)*k + (c-1)*kc)
	msgs = float64(2*(rounds+2*(c-1)) + 2 + 2*(q/c-1) + (c - 1))
	return words, msgs, true
}

func runMatMulSUMMA(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	a := matrix.Random(pt.N, pt.N, 3)
	b := matrix.Random(pt.N, pt.N, 4)
	r, err := matmul.TwoPointFiveDSUMMA(cost, pt.Q, pt.C, a, b)
	if err != nil {
		return nil, err
	}
	if d := r.C.MaxAbsDiff(matmul.Serial(a, b)); d > 1e-9*float64(pt.N) {
		return nil, fmt.Errorf("numerical mismatch vs serial: %g", d)
	}
	return &algRun{
		res: r.Sim,
		// SUMMA's per-panel broadcasts resend blocks and announce sizes, so
		// the W constant sits higher than Cannon's and S carries an extra
		// Θ((q/c)·log q) of announcement messages the Eq. 7 critical path
		// doesn't have; T/E follow S on latency-dominated sweep sizes.
		expects: matmulExpectations(m, pt, r.Sim,
			Band{1.7, 9}, Band{8, 21}, Band{5.5, 28}, Band{1.8, 9}),
		lower: classicalBounds(pt),
	}, nil
}

// matmulRectPoints sweeps genuinely non-square (m, k, n) shapes on
// non-square pr×pc grids — the coordinates the square-centric families
// never exercise, covering distinct aspect-ratio regimes of the Al Daas et
// al. rectangular bound.
func matmulRectPoints(l Level) []Point {
	pts := []Point{
		// Wide-ish C on a 2×4 grid, panelled k.
		{MDim: 24, KDim: 16, N: 32, PR: 2, PC: 4, Panel: 4, P: 8},
		// Tall-skinny: m ≫ k = n.
		{MDim: 64, KDim: 8, N: 8, PR: 4, PC: 2, Panel: 2, P: 8},
	}
	if l == Full {
		pts = append(pts,
			Point{MDim: 48, KDim: 32, N: 64, PR: 4, PC: 8, Panel: 4, P: 32},
			Point{MDim: 96, KDim: 96, N: 24, PR: 4, PC: 4, Panel: 8, P: 16},
		)
	}
	return pts
}

// rectSUMMAModel returns the per-rank receive volume and broadcast-step
// count of SUMMARect: every rank receives each A panel of its process row
// (mk/pr words over the whole k extent) and each B panel of its column
// (kn/pc), in 2·(k/panel) broadcast steps.
func rectSUMMAModel(pt Point) (words, steps float64) {
	m, k, n := float64(pt.MDim), float64(pt.KDim), float64(pt.N)
	return m*k/float64(pt.PR) + k*n/float64(pt.PC), 2 * k / float64(pt.Panel)
}

func runMatMulRect(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	a := matrix.Random(pt.MDim, pt.KDim, 12)
	b := matrix.Random(pt.KDim, pt.N, 13)
	r, err := matmul.SUMMARect(cost, pt.PR, pt.PC, pt.Panel, a, b)
	if err != nil {
		return nil, err
	}
	if d := r.C.MaxAbsDiff(matmul.Serial(a, b)); d > 1e-9*float64(pt.KDim) {
		return nil, fmt.Errorf("numerical mismatch vs serial: %g", d)
	}
	mm, kk, nn := float64(pt.MDim), float64(pt.KDim), float64(pt.N)
	p := float64(pt.P)
	rowsPer := pt.MDim / pt.PR
	colsPer := pt.N / pt.PC
	footprint := float64(rowsPer*(pt.KDim/pt.PC) + (pt.KDim/pt.PR)*colsPer + rowsPer*colsPer)
	s := r.Sim.MaxStats()
	modelW, modelS := rectSUMMAModel(pt)
	return &algRun{
		res: r.Sim,
		expects: []expectation{
			// Perfect balance: every rank multiplies rowsPer×panel×colsPer
			// blocks across the whole k extent — exactly 2·m·k·n/p flops.
			{quantity: "F", got: s.Flops, model: 2 * mm * kk * nn / p,
				band:   exactBand,
				detail: "busiest-rank flops vs exact multiply-adds 2·m·k·n/p"},
			{quantity: "M", got: s.PeakMemWords, model: footprint,
				band:   exactBand,
				detail: "peak tracked words vs exact A/B/C block footprint"},
			// Senders are the per-step broadcast roots; the busiest rank's
			// sent volume tracks the per-rank receive volume mk/pr + kn/pc
			// with a grid-dependent constant (roots resend their panel to
			// the BcastLarge scatter + allgather).
			{quantity: "W", got: s.WordsSent, model: modelW,
				band:   Band{0.7, 1.2},
				detail: "busiest-rank words sent vs SUMMA panel volume mk/pr + kn/pc"},
			{quantity: "S", got: s.MsgsSent, model: modelS,
				band:   Band{2.5, 8.5},
				detail: "busiest-rank messages vs 2·(k/panel) broadcast steps (BcastLarge sends size announcements + scatter/allgather chunks per step)"},
		},
		lower: bounds.MatMulBounds(bounds.MatMulProblem{
			M: mm, K: kk, N: nn, P: p, Mem: footprint,
		}),
	}, nil
}

func matmul3DPoints(l Level) []Point {
	pts := []Point{{N: 32, Q: 2, P: 8}}
	if l == Full {
		pts = append(pts, Point{N: 64, Q: 4, P: 64})
	}
	return pts
}

func runMatMul3D(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	a := matrix.Random(pt.N, pt.N, 5)
	b := matrix.Random(pt.N, pt.N, 6)
	r, err := matmul.ThreeD(cost, pt.Q, a, b)
	if err != nil {
		return nil, err
	}
	if d := r.C.MaxAbsDiff(matmul.Serial(a, b)); d > 1e-9*float64(pt.N) {
		return nil, fmt.Errorf("numerical mismatch vs serial: %g", d)
	}
	n, p := float64(pt.N), float64(pt.P)
	nb := pt.N / pt.Q
	s := r.Sim.MaxStats()
	// At the 3D limit M = n²/p^(2/3): each rank does one nb³ multiply.
	modelMem := 3 * float64(nb) * float64(nb)
	model := bounds.ClassicalMatMul(n, p, n*n/math.Pow(p, 2.0/3.0), m.MaxMsgWords)
	eval := core.Eval(m, model, p, modelMem)
	return &algRun{
		res: r.Sim,
		expects: []expectation{
			// One nb³ multiply plus the fiber reduce over q layers.
			{quantity: "F", got: s.Flops, model: 2*n*n*n/p + reduceCombineFlops(nb, pt.Q),
				band:   exactBand,
				detail: "busiest-rank flops vs exact 2n³/p + reduce combines (q−1)·nb²/q"},
			{quantity: "M", got: s.PeakMemWords, model: modelMem,
				band: exactBand, detail: "peak tracked words vs exact 3·(n/q)²"},
			{quantity: "W", got: s.WordsSent, model: model.Words,
				band: Band{4, 6.5}, detail: "busiest-rank words vs Eq. 8 at M = n²/p^(2/3)"},
			{quantity: "T", got: r.Sim.Time(), model: eval.TotalTime(),
				band: Band{3, 35}, detail: "simulated runtime vs Eq. 1 at the 3D limit (latency-heavy machines sit high)"},
			{quantity: "E", got: core.PriceSim(m, r.Sim).Total(), model: eval.TotalEnergy(),
				band: Band{2, 5.5}, detail: "priced energy vs Eq. 2 at the 3D limit"},
		},
		lower: classicalBounds(pt),
	}, nil
}

// reduceCombineFlops returns the exact per-rank combine flops of
// sim.Comm.ReduceLarge over a fiber of f members on an nb×nb block: the
// ring reduce-scatter charges one flop per element for each of the f−1
// incoming chunks of nb²/f words (every member alike). When the payload is
// too small to split, ReduceLarge falls back to the binomial tree whose
// root combines ⌈log2 f⌉ full blocks — the busiest rank either way.
func reduceCombineFlops(nb, f int) float64 {
	if f <= 1 {
		return 0
	}
	k := nb * nb
	if k >= f && k%f == 0 {
		return float64((f - 1) * (k / f))
	}
	return float64(bits.Len(uint(f-1))) * float64(k)
}

// classicalBounds returns the composite lower-bound set for a square
// classical matmul point: the exact-constant ITT memory-dependent bound at
// the point's tracked footprint 3·(n/q)² plus the Ballard et al.
// memory-independent bound.
func classicalBounds(pt Point) bounds.BoundSet {
	n := float64(pt.N)
	nb := float64(pt.N / pt.Q)
	return bounds.MatMulBounds(bounds.MatMulProblem{
		M: n, K: n, N: n,
		P:   float64(pt.P),
		Mem: 3 * nb * nb,
	})
}

// --- CAPS (Strassen) --------------------------------------------------------

func capsPoints(l Level) []Point {
	pts := []Point{{N: 56, K: 1, P: 7}}
	if l == Full {
		pts = append(pts, Point{N: 112, K: 1, P: 7}, Point{N: 112, K: 2, P: 49})
	}
	return pts
}

func runCAPS(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	a := matrix.Random(pt.N, pt.N, 7)
	b := matrix.Random(pt.N, pt.N, 8)
	r, err := strassen.CAPS(cost, pt.K, a, b, 8)
	if err != nil {
		return nil, err
	}
	if d := r.C.MaxAbsDiff(matmul.Serial(a, b)); d > 1e-8*float64(pt.N) {
		return nil, fmt.Errorf("numerical mismatch vs serial: %g", d)
	}
	n, p := float64(pt.N), float64(pt.P)
	s := r.Sim.MaxStats()
	omega := bounds.OmegaStrassen
	// CAPS runs at its natural footprint; use the tracked peak as the
	// model's M (the FLM regime prices W in terms of whatever M is used).
	mem := s.PeakMemWords
	model := bounds.FastMatMul(n, p, mem, m.MaxMsgWords, omega)
	eval := core.Eval(m, model, p, mem)
	return &algRun{
		res: r.Sim,
		expects: []expectation{
			// The classical sub-cutoff leaves do Θ(nb³) multiply-adds, so
			// the measured count sits a stable ~4x above the pure n^ω0/p
			// asymptote at cutoff 8.
			{quantity: "F", got: s.Flops, model: model.Flops,
				band:   Band{3.5, 4.5},
				detail: "busiest-rank flops vs n^ω0/p (cutoff-8 classical leaves carry ~4x)"},
			{quantity: "W", got: s.WordsSent, model: model.Words,
				band:   Band{6, 13},
				detail: "busiest-rank words vs Eq. 13 W = n^ω0/(p·M^(ω0/2−1))"},
			// The FLM forms drop the α·S term the deep CAPS recursion pays,
			// so T inflates hard on latency-heavy machines.
			{quantity: "T", got: r.Sim.Time(), model: eval.TotalTime(),
				band: Band{3.5, 80}, detail: "simulated runtime vs Eq. 1 on the FLM costs"},
			{quantity: "E", got: core.PriceSim(m, r.Sim).Total(), model: eval.TotalEnergy(),
				band: Band{3.5, 11}, detail: "priced energy vs Eq. 2 on the FLM costs"},
		},
		lower: bounds.MatMulBounds(bounds.MatMulProblem{
			M: n, K: n, N: n, P: p, Mem: mem, Omega0: omega,
		}),
	}, nil
}

// --- Stacked LU -------------------------------------------------------------

func luPoints(l Level) []Point {
	pts := []Point{{N: 32, Q: 4, C: 2, P: 32}}
	if l == Full {
		pts = append(pts, Point{N: 64, Q: 4, C: 2, P: 32}, Point{N: 64, Q: 4, C: 4, P: 64})
	}
	return pts
}

func runLU(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	a := matrix.RandomDiagDominant(pt.N, 9)
	r, err := lu.Stacked(cost, pt.Q, pt.C, a)
	if err != nil {
		return nil, err
	}
	if d := matrix.Mul(r.L, r.U).MaxAbsDiff(a); d > 1e-8*float64(pt.N) {
		return nil, fmt.Errorf("LU residual %g", d)
	}
	n, p := float64(pt.N), float64(pt.P)
	s := r.Sim.MaxStats()
	model := bounds.LU25D(n, p, s.PeakMemWords)
	eval := core.Eval(m, model, p, s.PeakMemWords)
	return &algRun{
		res: r.Sim,
		expects: []expectation{
			{quantity: "F", got: s.Flops, model: model.Flops,
				band:   Band{1.9, 2.4},
				detail: "busiest-rank flops vs n³/p (LU does ~2·(n³/p) ops as multiply-adds plus panel work)"},
			{quantity: "W", got: s.WordsSent, model: model.Words,
				band: Band{2.8, 5.5}, detail: "busiest-rank words vs W = n³/(p·√M)"},
			{quantity: "S", got: s.MsgsSent, model: model.Msgs,
				band:   Band{0.35, 2},
				detail: "busiest-rank messages vs the non-scaling S = √(cp) critical path"},
			{quantity: "T", got: r.Sim.Time(), model: eval.TotalTime(),
				band: Band{3, 7}, detail: "simulated runtime vs Eq. 1 on the LU costs"},
			{quantity: "E", got: core.PriceSim(m, r.Sim).Total(), model: eval.TotalEnergy(),
				band: Band{0.4, 1}, detail: "priced energy vs Eq. 2 on the LU costs"},
		},
		lower: bounds.LUBounds(n, p, s.PeakMemWords),
	}, nil
}

// --- N-body -----------------------------------------------------------------

func nbodyPoints(l Level) []Point {
	pts := []Point{
		{N: 64, P: 8, C: 1},
		{N: 128, P: 16, C: 2},
	}
	if l == Full {
		pts = append(pts, Point{N: 256, P: 64, C: 4}, Point{N: 256, P: 64, C: 8})
	}
	return pts
}

func runNBody(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	bodies := nbody.RandomBodies(pt.N, 10)
	r, err := nbody.Replicated(cost, pt.P, pt.C, bodies)
	if err != nil {
		return nil, err
	}
	if d := nbody.MaxAbsDiff(r.Forces, nbody.SerialForces(bodies)); d > 1e-9 {
		return nil, fmt.Errorf("force mismatch vs serial: %g", d)
	}
	n, p := float64(pt.N), float64(pt.P)
	k := pt.P / pt.C
	blockBodies := pt.N / k
	s := r.Sim.MaxStats()
	// The model's M counts replicated bodies: each team member holds the
	// resident + traveling block, M = Θ(c·n/p) bodies.
	memBodies := float64(pt.C) * n / p
	model := bounds.NBody(n, p, memBodies, m.MaxMsgWords, nbody.FlopsPerPair)
	eval := core.Eval(m, bounds.Costs{
		Flops: model.Flops,
		Words: model.Words * nbody.WordsPerBody,
		Msgs:  model.Msgs,
	}, p, s.PeakMemWords)
	return &algRun{
		res: r.Sim,
		expects: []expectation{
			{quantity: "F", got: s.Flops, model: model.Flops,
				band: Band{0.95, 1.05}, detail: "busiest-rank flops vs f·n²/p"},
			{quantity: "M", got: s.PeakMemWords,
				model:  float64(2*blockBodies*nbody.WordsPerBody + 3*blockBodies),
				band:   exactBand,
				detail: "peak tracked words vs exact resident+traveling blocks + forces"},
			{quantity: "W", got: s.WordsSent, model: model.Words * nbody.WordsPerBody,
				band:   Band{0.8, 3},
				detail: "busiest-rank words vs Eq. 15 W = n²/(p·M) (in words)"},
			{quantity: "T", got: r.Sim.Time(), model: eval.TotalTime(),
				band: Band{1.2, 28}, detail: "simulated runtime vs Eq. 1 on the n-body costs (latency-heavy machines sit high)"},
			{quantity: "E", got: core.PriceSim(m, r.Sim).Total(), model: eval.TotalEnergy(),
				band: Band{0.9, 2.2}, detail: "priced energy vs Eq. 2 on the n-body costs"},
		},
		lower: bounds.NBodyBounds(n, p, memBodies, nbody.WordsPerBody),
	}, nil
}

// --- FFT --------------------------------------------------------------------

func fftPoints(l Level) []Point {
	pts := []Point{
		{N: 512, P: 8, Tree: true},
		{N: 512, P: 8, Tree: false},
	}
	if l == Full {
		pts = append(pts, Point{N: 4096, P: 16, Tree: true}, Point{N: 4096, P: 16, Tree: false})
	}
	return pts
}

func runFFT(cost sim.Cost, m machine.Params, pt Point) (*algRun, error) {
	x := fft.RandomSignal(pt.N, 11)
	r, err := fft.Distributed(cost, pt.P, x, pt.Tree)
	if err != nil {
		return nil, err
	}
	if d := fft.MaxAbsDiff(r.Y, fft.Serial(x)); d > 1e-7*float64(pt.N) {
		return nil, fmt.Errorf("FFT mismatch vs serial: %g", d)
	}
	n, p := float64(pt.N), float64(pt.P)
	s := r.Sim.MaxStats()
	var model bounds.Costs
	if pt.Tree {
		model = bounds.FFTTree(n, p)
	} else {
		model = bounds.FFTNaive(n, p)
	}
	// A complex word is 2 real words; radix-2 butterflies cost ≈5 real
	// flops per element versus the paper's n·log₂n count.
	eval := core.Eval(m, bounds.Costs{
		Flops: 5 * model.Flops, Words: 2 * model.Words, Msgs: model.Msgs,
	}, p, s.PeakMemWords)
	// Exact per-rank traffic of the one all-to-all, in real words (a
	// complex element is 2 words, n/p² complex per destination block):
	// the naive exchange sends p−1 direct blocks; the Bruck tree sends
	// half its p-block buffer in each of the log₂p rounds (one SendRecv
	// per round). Exact for the power-of-two p the sweep uses.
	var exactW, exactS float64
	if pt.Tree {
		rounds := float64(bits.Len(uint(pt.P - 1)))
		exactW = rounds * n / p
		exactS = rounds
	} else {
		exactW = 2 * (p - 1) * n / (p * p)
		exactS = p - 1
	}
	return &algRun{
		res: r.Sim,
		expects: []expectation{
			{quantity: "F", got: s.Flops, model: 5 * model.Flops,
				band: Band{1.02, 1.2}, detail: "busiest-rank flops vs 5·n·log₂n/p real-op count"},
			{quantity: "W", got: s.WordsSent, model: exactW,
				band: exactBand, detail: "busiest-rank words vs the exact all-to-all schedule volume"},
			{quantity: "S", got: s.MsgsSent, model: exactS,
				band: exactBand, detail: "busiest-rank messages vs the exact all-to-all round count"},
			{quantity: "T", got: r.Sim.Time(), model: eval.TotalTime(),
				band: Band{0.7, 1.1}, detail: "simulated runtime vs Eq. 1 on the FFT costs"},
			{quantity: "E", got: core.PriceSim(m, r.Sim).Total(), model: eval.TotalEnergy(),
				band: Band{0.85, 1.25}, detail: "priced energy vs Eq. 2 on the FFT costs"},
		},
		// Peak tracked words → complex-element capacity for Hong–Kung.
		lower: bounds.FFTBounds(n, p, s.PeakMemWords/2),
	}, nil
}
