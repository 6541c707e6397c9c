package analytics

import (
	"fmt"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/fft"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
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
	// the family's expected scale. The golden file pins both.
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

// curvePoint is one point of a curve to measure: the row's coordinates
// (Family, Algorithm, N, P, C) and the program that runs it.
type curvePoint struct {
	row CurvePoint
	run func(cost sim.Cost) (*sim.Result, error)
}

// measureCurve runs each point on cost with a Collector as its one
// observer, fills the row's SimT, EnergyJ (priced on m) and RankFlops, and
// finishes the curve against its first point. It is the one loop that
// simulates a scaling curve.
func measureCurve(m machine.Params, cost sim.Cost, pts []curvePoint) ([]CurvePoint, error) {
	rows := make([]CurvePoint, len(pts))
	profs := make([]*PhaseProfile, len(pts))
	for i, pt := range pts {
		r := pt.row
		col := obs.NewCollector(r.P)
		cost.Observers = []sim.Observer{col}
		res, err := pt.run(cost)
		if err != nil {
			return nil, fmt.Errorf("analytics: %s %s n=%d p=%d c=%d: %w", r.Family, r.Algorithm, r.N, r.P, r.C, err)
		}
		r.SimT = res.Time()
		r.EnergyJ = core.PriceSim(m, res).Total()
		r.RankFlops = res.MaxStats().Flops
		rows[i] = r
		profs[i] = BuildProfile(m, res, col, Meta{Algorithm: r.Algorithm, N: r.N, C: r.C})
	}
	finishCurve(rows, profs)
	return rows, nil
}

// finishCurve fills Efficiency, EnergyRatio, PhaseSpans and PhaseEff for a
// measured curve relative to its first point. Each row's Family selects the
// definitions: strong rows expect T and every phase span to fall as 1/p at
// constant E; weak rows compare the per-rank flop rate, the energy per flop
// and the raw phase spans.
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
				// Weak: ideal weak scaling keeps the spans ~flat.
				r.PhaseEff[ps0.Name] = ps0.Span.Max / span
			}
		}
	}
}

// runMatMul25D runs the 2.5D matmul at n, q, c on phantom operands: a curve
// reads only counters and clocks, which a payload-free run keeps bit for
// bit (matmul.Phantom).
func runMatMul25D(n, q, c int) func(sim.Cost) (*sim.Result, error) {
	return func(cost sim.Cost) (*sim.Result, error) {
		res, err := matmul.TwoPointFiveD(cost, q, c, matmul.Phantom(n, n), matmul.Phantom(n, n))
		if err != nil {
			return nil, err
		}
		return res.Sim, nil
	}
}

// runNBody runs the replicated n-body on p ranks at replication c, on n
// bodies drawn from seed.
func runNBody(n, p, c int, seed int64) func(sim.Cost) (*sim.Result, error) {
	return func(cost sim.Cost) (*sim.Result, error) {
		res, err := nbody.Replicated(cost, p, c, nbody.RandomBodies(n, seed))
		if err != nil {
			return nil, err
		}
		return res.Sim, nil
	}
}

// StrongMatMulCurve measures the paper's perfect-strong-scaling
// construction on the live simulator: 2.5D matmul at fixed n and grid q,
// replication c ∈ cs (p = q²·c, per-rank memory fixed at 3·(n/q)² plus
// replicas). The runs use cost's clock and are priced on m. The
// closed-form prediction evaluates Eqs. 8+1 at matching coordinates;
// inside the region it predicts T÷c at constant E.
func StrongMatMulCurve(m machine.Params, cost sim.Cost, n, q int, cs []int) ([]CurvePoint, error) {
	pts := make([]curvePoint, len(cs))
	for i, c := range cs {
		pts[i] = curvePoint{CurvePoint{Family: "strong", Algorithm: "matmul-2.5d", N: n, P: q * q * c, C: c}, runMatMul25D(n, q, c)}
	}
	rows, err := measureCurve(m, cost, pts)
	if err != nil {
		return nil, err
	}
	// Per-rank memory is fixed at the c=1 footprint — the paper's
	// construction, so the prediction is ≈1 with a log(c) latency dent.
	nf := float64(n)
	mem := nf * nf / float64(q*q)
	predictStrong(rows, bounds.ClassicalPlateau(nf, mem), func(p float64) core.Result { return core.MatMulClassical(m, nf, p, mem) })
	return rows, nil
}

// predictStrong fills Predicted with the model's strong efficiency
// T(p0)·p0/(T(p)·p) against the first row, and the plateau columns from
// pl; model prices the curve's problem on p ranks.
func predictStrong(rows []CurvePoint, pl bounds.Plateau, model func(p float64) core.Result) {
	if len(rows) == 0 {
		return
	}
	p0 := float64(rows[0].P)
	t0 := model(p0).TotalTime()
	for i := range rows {
		p := float64(rows[i].P)
		rows[i].Predicted = t0 * p0 / (model(p).TotalTime() * p)
		rows[i].PlateauP = pl.PEnd
		rows[i].PlateauBound = pl.BindingAt(p)
	}
}

// StrongNBodyCurve is the n-body analogue: ring size k fixed, replication
// c ∈ cs (p = k·c, M = c·n/p = n/k fixed).
func StrongNBodyCurve(m machine.Params, cost sim.Cost, n, k int, cs []int) ([]CurvePoint, error) {
	pts := make([]curvePoint, len(cs))
	for i, c := range cs {
		pts[i] = curvePoint{CurvePoint{Family: "strong", Algorithm: "nbody", N: n, P: k * c, C: c}, runNBody(n, k*c, c, 33)}
	}
	rows, err := measureCurve(m, cost, pts)
	if err != nil {
		return nil, err
	}
	// Closed-form prediction: NBody costs at fixed M = n/k.
	mem := float64(n) / float64(k)
	predictStrong(rows, bounds.NBodyPlateau(float64(n), mem), func(p float64) core.Result {
		return core.NBody(m, float64(n), p, mem, nbody.FlopsPerPair)
	})
	return rows, nil
}

// predictWeak fills Predicted with the model's per-rank flop-rate ratio
// against the first row; model prices a row's (n, p).
func predictWeak(rows []CurvePoint, model func(n, p float64) core.Result) {
	if len(rows) == 0 {
		return
	}
	rate := func(r CurvePoint) float64 {
		res := model(float64(r.N), float64(r.P))
		return res.Costs.Flops / res.TotalTime()
	}
	r0 := rate(rows[0])
	for i := range rows {
		rows[i].Predicted = rate(rows[i]) / r0
	}
}

// WeakMatMulCurve measures memory-constrained weak scaling: the per-rank
// block nb is fixed and the grid grows, n = q·nb, p = q² — per-rank memory
// stays 3·nb² while per-rank work n³/p = nb³·q grows with the grid. The
// efficiency is the per-rank flop-rate ratio; the Eq. 10 corollary
// predicts constant energy per flop.
func WeakMatMulCurve(m machine.Params, cost sim.Cost, nb int, qs []int) ([]CurvePoint, error) {
	pts := make([]curvePoint, len(qs))
	for i, q := range qs {
		pts[i] = curvePoint{CurvePoint{Family: "weak", Algorithm: "matmul-2.5d", N: q * nb, P: q * q, C: 1}, runMatMul25D(q*nb, q, 1)}
	}
	rows, err := measureCurve(m, cost, pts)
	if err != nil {
		return nil, err
	}
	// Prediction: model flop rate ratio at M = nb² per rank.
	predictWeak(rows, func(n, p float64) core.Result { return core.MatMulClassical(m, n, p, float64(nb*nb)) })
	return rows, nil
}

// WeakNBodyCurve fixes bodies per rank and grows the ring: n = b·p, c = 1,
// M = n/p = b fixed. Per-rank work f·n²/p grows linearly in p (all pairs
// interact), so the flop-rate efficiency is the meaningful curve.
func WeakNBodyCurve(m machine.Params, cost sim.Cost, b int, ps []int) ([]CurvePoint, error) {
	pts := make([]curvePoint, len(ps))
	for i, p := range ps {
		pts[i] = curvePoint{CurvePoint{Family: "weak", Algorithm: "nbody", N: b * p, P: p, C: 1}, runNBody(b*p, p, 1, 43)}
	}
	rows, err := measureCurve(m, cost, pts)
	if err != nil {
		return nil, err
	}
	predictWeak(rows, func(n, p float64) core.Result { return core.NBody(m, n, p, float64(b), nbody.FlopsPerPair) })
	return rows, nil
}

// WeakFFTCurve fixes elements per rank and grows p: n = e·p (kept a power
// of two by requiring e and every p to be powers of two). Per-rank work
// n·log₂(n)/p = e·log₂(e·p) grows only logarithmically; the tree
// all-to-all's W = n·log₂(p)/p term is what bends this curve.
func WeakFFTCurve(m machine.Params, cost sim.Cost, e int, ps []int) ([]CurvePoint, error) {
	pts := make([]curvePoint, len(ps))
	for i, p := range ps {
		pts[i] = curvePoint{CurvePoint{Family: "weak", Algorithm: "fft-tree", N: e * p, P: p, C: 1}, func(cost sim.Cost) (*sim.Result, error) {
			res, err := fft.Distributed(cost, p, fft.RandomSignal(e*p, 45), true)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		}}
	}
	rows, err := measureCurve(m, cost, pts)
	if err != nil {
		return nil, err
	}
	predictWeak(rows, func(n, p float64) core.Result { return core.FFT(m, n, p, true) })
	return rows, nil
}

// QuickCurves runs the standard quick sweep — the rows of the golden file
// BENCH_scaling.json and of reproduce's Curves section: strong and weak
// families for matmul, plus n-body and FFT. The sizes amortize
// communication against compute enough that the strong matmul curve sits
// near 1 while staying inside a test budget.
func QuickCurves(m machine.Params) ([]CurvePoint, error) {
	cost := core.SimCost(m)
	var out []CurvePoint
	strong, err := StrongMatMulCurve(m, cost, 192, 4, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	out = append(out, strong...)
	weak, err := WeakMatMulCurve(m, cost, 24, []int{2, 4, 8})
	if err != nil {
		return nil, err
	}
	out = append(out, weak...)
	sn, err := StrongNBodyCurve(m, cost, 256, 8, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	out = append(out, sn...)
	wn, err := WeakNBodyCurve(m, cost, 32, []int{4, 8, 16})
	if err != nil {
		return nil, err
	}
	out = append(out, wn...)
	wf, err := WeakFFTCurve(m, cost, 256, []int{4, 8, 16})
	if err != nil {
		return nil, err
	}
	out = append(out, wf...)
	return out, nil
}
