package analytics

import (
	"fmt"
	"math/rand"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/fft"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// CurvePoint is one row of an efficiency-vs-p curve: one algorithm at one
// processor count under one scaling family. Every field is a virtual-time
// quantity, so rows are deterministic and committable as a baseline.
type CurvePoint struct {
	Family    string `json:"family"` // "strong" or "weak"
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	P         int    `json:"p"`
	C         int    `json:"c,omitempty"`

	SimT    float64 `json:"sim_time_s"`
	EnergyJ float64 `json:"energy_joules"`
	// RankFlops is the max per-rank F — the work normalizer for weak
	// scaling, where the problem grows with p.
	RankFlops float64 `json:"rank_flops"`

	// Efficiency is the measured scaling efficiency against the family's
	// first point: strong = T(p0)·p0/(T(p)·p); weak = the per-rank flop
	// rate ratio (F/T)(p)/(F/T)(p0). 1 is perfect.
	Efficiency float64 `json:"efficiency"`
	// Predicted is the same quantity computed from the closed forms of
	// internal/core at the same coordinates — the model's curve.
	Predicted float64 `json:"predicted"`
	// EnergyRatio is E(p)/E(p0) for strong scaling (the paper predicts 1
	// inside the region) and energy-per-flop ratio for weak scaling (the
	// Eq. 10 corollary predicts 1).
	EnergyRatio float64 `json:"energy_ratio"`

	// PhaseSpans maps phase name to makespan (Span.Max) at this point;
	// PhaseEff to the phase's scaling efficiency vs the first point under
	// the family's expected scale. The regression gate compares both.
	PhaseSpans map[string]float64 `json:"phase_spans,omitempty"`
	PhaseEff   map[string]float64 `json:"phase_eff,omitempty"`

	// PlateauP is the exact predicted endpoint p* of the perfect-scaling
	// plateau for this curve's fixed problem size and per-rank memory
	// (internal/bounds; zero when no closed-form plateau applies), and
	// PlateauBound names the lower bound that binds at this row's p: the
	// memory-dependent bound inside the plateau, the memory-independent
	// wall past it. A sub-1 efficiency at p > PlateauP is the wall, not a
	// regression.
	PlateauP     float64 `json:"plateau_p,omitempty"`
	PlateauBound string  `json:"plateau_bound,omitempty"`
}

// Key identifies the row for baseline matching.
func (c CurvePoint) Key() string {
	return fmt.Sprintf("%s/%s/n%d/p%d/c%d", c.Family, c.Algorithm, c.N, c.P, c.C)
}

// SweepConfig parameterizes the curve drivers.
type SweepConfig struct {
	Machine machine.Params
}

func (sc SweepConfig) cost() sim.Cost {
	return sim.Cost{
		GammaT:      sc.Machine.GammaT,
		BetaT:       sc.Machine.BetaT,
		AlphaT:      sc.Machine.AlphaT,
		MaxMsgWords: int(sc.Machine.MaxMsgWords),
	}
}

// observed runs one simulation with a Collector attached and returns the
// result plus its phase profile.
type observedRun struct {
	res  *sim.Result
	prof *PhaseProfile
}

func runObserved(sc SweepConfig, p int, meta Meta, run func(cost sim.Cost) (*sim.Result, error)) (*observedRun, error) {
	col := obs.NewCollector(p)
	cost := sc.cost()
	cost.Observers = []sim.Observer{col}
	res, err := run(cost)
	if err != nil {
		return nil, err
	}
	return &observedRun{res: res, prof: BuildProfile(sc.Machine, res, col, meta)}, nil
}

// finishCurve fills Efficiency, EnergyRatio and PhaseEff for a measured
// curve relative to its first point. kind selects the efficiency
// definition; expectedSpanScale(i) is the model's per-phase time scale for
// point i vs point 0 (1/c for strong scaling; the weak families derive it
// from per-rank work).
func finishCurve(rows []CurvePoint, profs []*PhaseProfile) {
	if len(rows) == 0 {
		return
	}
	r0 := rows[0]
	for i := range rows {
		r := &rows[i]
		switch r.Family {
		case "strong":
			// Fixed total work: efficiency = T0·p0 / (T·p).
			r.Efficiency = r0.SimT * float64(r0.P) / (r.SimT * float64(r.P))
			r.EnergyRatio = r.EnergyJ / r0.EnergyJ
		default: // weak
			// Growing work: per-rank flop-rate ratio.
			rate0 := r0.RankFlops / r0.SimT
			r.Efficiency = (r.RankFlops / r.SimT) / rate0
			// Energy per flop ratio (total flops ≈ p·RankFlops).
			ef0 := r0.EnergyJ / (float64(r0.P) * r0.RankFlops)
			r.EnergyRatio = r.EnergyJ / (float64(r.P) * r.RankFlops) / ef0
		}
		if profs[i] != nil {
			r.PhaseSpans = map[string]float64{}
			r.PhaseEff = map[string]float64{}
			for _, ps := range profs[i].Phases {
				r.PhaseSpans[ps.Name] = ps.Span.Max
			}
			for _, ps0 := range profs[0].Phases {
				span := r.PhaseSpans[ps0.Name]
				if span <= 0 || ps0.Span.Max <= 0 {
					continue
				}
				switch r.Family {
				case "strong":
					// Perfect scaling predicts span ∝ 1/(p/p0).
					scale := float64(r0.P) / float64(r.P)
					r.PhaseEff[ps0.Name] = ps0.Span.Max * scale / span
				default:
					// Weak: phase flop-rate where the phase computes,
					// otherwise span ratio (ideal weak scaling keeps
					// communication spans ~flat).
					r.PhaseEff[ps0.Name] = ps0.Span.Max / span
				}
			}
		}
	}
}

// StrongMatMulCurve measures the paper's perfect-strong-scaling
// construction on the live simulator: 2.5D matmul at fixed n and grid q,
// replication c ∈ cs (p = q²·c, per-rank memory fixed at 3·(n/q)² plus
// replicas). The closed-form prediction evaluates Eqs. 8+1 at matching
// coordinates; inside the region it predicts T÷c at constant E.
func StrongMatMulCurve(sc SweepConfig, n, q int, cs []int) ([]CurvePoint, error) {
	a := matrix.Random(n, n, 31)
	b := matrix.Random(n, n, 32)
	rows := make([]CurvePoint, 0, len(cs))
	profs := make([]*PhaseProfile, 0, len(cs))
	for _, c := range cs {
		p := q * q * c
		or, err := runObserved(sc, p, Meta{Algorithm: "matmul-2.5d", N: n, C: c}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := matmul.TwoPointFiveD(cost, q, c, a, b)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: strong matmul q=%d c=%d: %w", q, c, err)
		}
		rows = append(rows, CurvePoint{
			Family: "strong", Algorithm: "matmul-2.5d",
			N: n, P: p, C: c,
			SimT:      or.res.Time(),
			EnergyJ:   core.PriceSim(sc.Machine, or.res).Total(),
			RankFlops: or.res.MaxStats().Flops,
		})
		profs = append(profs, or.prof)
	}
	finishCurve(rows, profs)
	predictStrongMatMul(sc.Machine, rows, q)
	return rows, nil
}

// predictStrongMatMul fills Predicted from the closed forms: the model's
// T(p0)·p0/(T(p)·p) with per-rank memory fixed at the c=1 footprint — the
// paper's construction, so the prediction is ≈1 with a log(c) latency dent.
func predictStrongMatMul(m machine.Params, rows []CurvePoint, q int) {
	if len(rows) == 0 {
		return
	}
	n := float64(rows[0].N)
	pmin := float64(q * q)
	mem := n * n / pmin
	t0 := core.MatMulClassical(m, n, pmin*float64(rows[0].C), mem).TotalTime()
	p0 := float64(rows[0].P)
	pl := bounds.ClassicalPlateau(n, mem)
	for i := range rows {
		p := float64(rows[i].P)
		t := core.MatMulClassical(m, n, p, mem).TotalTime()
		rows[i].Predicted = t0 * p0 / (t * p)
		rows[i].PlateauP = pl.PEnd
		rows[i].PlateauBound = pl.BindingAt(p)
	}
}

// StrongNBodyCurve is the n-body analogue: ring size k fixed, replication
// c ∈ cs (p = k·c, M = c·n/p = n/k fixed).
func StrongNBodyCurve(sc SweepConfig, n, k int, cs []int) ([]CurvePoint, error) {
	bodies := nbody.RandomBodies(n, 33)
	rows := make([]CurvePoint, 0, len(cs))
	profs := make([]*PhaseProfile, 0, len(cs))
	for _, c := range cs {
		p := k * c
		or, err := runObserved(sc, p, Meta{Algorithm: "nbody", N: n, C: c}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := nbody.Replicated(cost, p, c, bodies)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: strong nbody k=%d c=%d: %w", k, c, err)
		}
		rows = append(rows, CurvePoint{
			Family: "strong", Algorithm: "nbody",
			N: n, P: p, C: c,
			SimT:      or.res.Time(),
			EnergyJ:   core.PriceSim(sc.Machine, or.res).Total(),
			RankFlops: or.res.MaxStats().Flops,
		})
		profs = append(profs, or.prof)
	}
	finishCurve(rows, profs)
	// Closed-form prediction: NBody costs at fixed M = n/k.
	if len(rows) > 0 {
		mem := float64(n) / float64(k)
		const f = 19 // the paper's flops per interaction; the sim uses its own constant, ratios cancel
		t0 := core.NBody(sc.Machine, float64(n), float64(rows[0].P), mem, f).TotalTime()
		p0 := float64(rows[0].P)
		pl := bounds.NBodyPlateau(float64(n), mem)
		for i := range rows {
			t := core.NBody(sc.Machine, float64(n), float64(rows[i].P), mem, f).TotalTime()
			rows[i].Predicted = t0 * p0 / (t * float64(rows[i].P))
			rows[i].PlateauP = pl.PEnd
			rows[i].PlateauBound = pl.BindingAt(float64(rows[i].P))
		}
	}
	return rows, nil
}

// RectSUMMACurve measures strong scaling of rectangular SUMMA at a fixed
// (m,k,n) shape over a list of pr×pc process grids, annotated with the
// tight rectangular lower bound of Al Daas et al. (arXiv:2205.13407):
// PlateauBound names the aspect-ratio regime that governs each row's p,
// and PlateauP the grid size beyond which all three dimensions are
// "large" and the cube-root law takes over — the rectangular analogue of
// the memory-independent wall. Predicted is the α-β-γ model's
// T(p0)·p0/(T(p)·p) with W = mk/pr + kn/pc and S = 2k/panel.
func RectSUMMACurve(sc SweepConfig, mDim, kDim, n, panel int, grids [][2]int) ([]CurvePoint, error) {
	a := matrix.Random(mDim, kDim, 51)
	b := matrix.Random(kDim, n, 52)
	rows := make([]CurvePoint, 0, len(grids))
	profs := make([]*PhaseProfile, 0, len(grids))
	model := func(pr, pc int) float64 {
		p := float64(pr * pc)
		w := float64(mDim*kDim)/float64(pr) + float64(kDim*n)/float64(pc)
		s := 2 * float64(kDim) / float64(panel)
		return sc.Machine.GammaT*2*float64(mDim)*float64(kDim)*float64(n)/p +
			sc.Machine.BetaT*w + sc.Machine.AlphaT*s
	}
	for _, g := range grids {
		pr, pc := g[0], g[1]
		p := pr * pc
		or, err := runObserved(sc, p, Meta{Algorithm: "matmul-summa-rect", N: n, C: 1}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := matmul.SUMMARect(cost, pr, pc, panel, a, b)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: rect summa %dx%d: %w", pr, pc, err)
		}
		_, p2 := bounds.RectRegimeBoundaries(float64(mDim), float64(kDim), float64(n))
		_, regime := bounds.RectAccesses(float64(mDim), float64(kDim), float64(n), float64(p))
		rows = append(rows, CurvePoint{
			Family: "strong", Algorithm: "matmul-summa-rect",
			N: n, P: p, C: 1,
			SimT:         or.res.Time(),
			EnergyJ:      core.PriceSim(sc.Machine, or.res).Total(),
			RankFlops:    or.res.MaxStats().Flops,
			PlateauP:     p2,
			PlateauBound: regime.BoundName(),
		})
		profs = append(profs, or.prof)
	}
	finishCurve(rows, profs)
	if len(rows) > 0 {
		t0 := model(grids[0][0], grids[0][1])
		p0 := float64(rows[0].P)
		for i := range rows {
			rows[i].Predicted = t0 * p0 / (model(grids[i][0], grids[i][1]) * float64(rows[i].P))
		}
	}
	return rows, nil
}

// WeakMatMulCurve measures memory-constrained weak scaling: the per-rank
// block nb is fixed and the grid grows, n = q·nb, p = q² — per-rank memory
// stays 3·nb² while per-rank work n³/p = nb³·q grows with the grid. The
// efficiency is the per-rank flop-rate ratio; the Eq. 10 corollary
// predicts constant energy per flop.
func WeakMatMulCurve(sc SweepConfig, nb int, qs []int) ([]CurvePoint, error) {
	rows := make([]CurvePoint, 0, len(qs))
	profs := make([]*PhaseProfile, 0, len(qs))
	for _, q := range qs {
		n := q * nb
		p := q * q
		a := matrix.Random(n, n, 41)
		b := matrix.Random(n, n, 42)
		or, err := runObserved(sc, p, Meta{Algorithm: "matmul-2.5d", N: n, C: 1}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := matmul.TwoPointFiveD(cost, q, 1, a, b)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: weak matmul q=%d: %w", q, err)
		}
		rows = append(rows, CurvePoint{
			Family: "weak", Algorithm: "matmul-2.5d",
			N: n, P: p, C: 1,
			SimT:      or.res.Time(),
			EnergyJ:   core.PriceSim(sc.Machine, or.res).Total(),
			RankFlops: or.res.MaxStats().Flops,
		})
		profs = append(profs, or.prof)
	}
	finishCurve(rows, profs)
	// Prediction: model flop rate ratio at M = nb² per rank.
	if len(rows) > 0 {
		mem := float64(nb * nb)
		rate := func(i int) float64 {
			n, p := float64(rows[i].N), float64(rows[i].P)
			r := core.MatMulClassical(sc.Machine, n, p, mem)
			return r.Costs.Flops / r.TotalTime()
		}
		r0 := rate(0)
		for i := range rows {
			rows[i].Predicted = rate(i) / r0
		}
	}
	return rows, nil
}

// WeakNBodyCurve fixes bodies per rank and grows the ring: n = b·p, c = 1,
// M = n/p = b fixed. Per-rank work f·n²/p grows linearly in p (all pairs
// interact), so the flop-rate efficiency is the meaningful curve.
func WeakNBodyCurve(sc SweepConfig, b int, ps []int) ([]CurvePoint, error) {
	rows := make([]CurvePoint, 0, len(ps))
	profs := make([]*PhaseProfile, 0, len(ps))
	for _, p := range ps {
		n := b * p
		bodies := nbody.RandomBodies(n, 43)
		or, err := runObserved(sc, p, Meta{Algorithm: "nbody", N: n, C: 1}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := nbody.Replicated(cost, p, 1, bodies)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: weak nbody p=%d: %w", p, err)
		}
		rows = append(rows, CurvePoint{
			Family: "weak", Algorithm: "nbody",
			N: n, P: p, C: 1,
			SimT:      or.res.Time(),
			EnergyJ:   core.PriceSim(sc.Machine, or.res).Total(),
			RankFlops: or.res.MaxStats().Flops,
		})
		profs = append(profs, or.prof)
	}
	finishCurve(rows, profs)
	if len(rows) > 0 {
		const f = 19
		rate := func(i int) float64 {
			n, p := float64(rows[i].N), float64(rows[i].P)
			r := core.NBody(sc.Machine, n, p, float64(b), f)
			return r.Costs.Flops / r.TotalTime()
		}
		r0 := rate(0)
		for i := range rows {
			rows[i].Predicted = rate(i) / r0
		}
	}
	return rows, nil
}

// WeakFFTCurve fixes elements per rank and grows p: n = e·p (kept a power
// of two by requiring e and every p to be powers of two). Per-rank work
// n·log₂(n)/p = e·log₂(e·p) grows only logarithmically; the tree
// all-to-all's W = n·log₂(p)/p term is what bends this curve.
func WeakFFTCurve(sc SweepConfig, e int, ps []int) ([]CurvePoint, error) {
	rows := make([]CurvePoint, 0, len(ps))
	profs := make([]*PhaseProfile, 0, len(ps))
	for _, p := range ps {
		n := e * p
		rng := rand.New(rand.NewSource(45))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		or, err := runObserved(sc, p, Meta{Algorithm: "fft-tree", N: n, C: 1}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := fft.Distributed(cost, p, x, true)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		})
		if err != nil {
			return nil, fmt.Errorf("analytics: weak fft p=%d: %w", p, err)
		}
		rows = append(rows, CurvePoint{
			Family: "weak", Algorithm: "fft-tree",
			N: n, P: p, C: 1,
			SimT:      or.res.Time(),
			EnergyJ:   core.PriceSim(sc.Machine, or.res).Total(),
			RankFlops: or.res.MaxStats().Flops,
		})
		profs = append(profs, or.prof)
	}
	finishCurve(rows, profs)
	if len(rows) > 0 {
		rate := func(i int) float64 {
			n, p := float64(rows[i].N), float64(rows[i].P)
			r := core.FFT(sc.Machine, n, p, true)
			return r.Costs.Flops / r.TotalTime()
		}
		r0 := rate(0)
		for i := range rows {
			rows[i].Predicted = rate(i) / r0
		}
	}
	return rows, nil
}

// QuickCurves runs the standard quick sweep — the CI gate's workload:
// strong and weak families for matmul, plus n-body and FFT. The sizes amortize communication against compute enough that
// the strong matmul curve sits near 1 while staying inside a CI budget.
func QuickCurves(m machine.Params) ([]CurvePoint, error) {
	sc := SweepConfig{Machine: m}
	var out []CurvePoint
	strong, err := StrongMatMulCurve(sc, 192, 4, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	out = append(out, strong...)
	weak, err := WeakMatMulCurve(sc, 24, []int{2, 4, 8})
	if err != nil {
		return nil, err
	}
	out = append(out, weak...)
	sn, err := StrongNBodyCurve(sc, 256, 8, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	out = append(out, sn...)
	wn, err := WeakNBodyCurve(sc, 32, []int{4, 8, 16})
	if err != nil {
		return nil, err
	}
	out = append(out, wn...)
	wf, err := WeakFFTCurve(sc, 256, []int{4, 8, 16})
	if err != nil {
		return nil, err
	}
	out = append(out, wf...)
	return out, nil
}
