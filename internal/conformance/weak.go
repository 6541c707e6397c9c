package conformance

import (
	"fmt"
	"math"

	"perfscale/internal/analytics"
	"perfscale/internal/core"
)

// weakSimBands bound the measured weak-scaling transform on the live
// simulator: with per-rank memory fixed and the problem grown to fill the
// machine, the per-rank flop rate and the energy per flop both stay ≈
// constant (the Eq. 10 corollary). The deviation budget covers the latency
// term, which grows slightly faster than per-rank work at sweepable sizes.
var (
	weakSimRateBand   = Band{0.85, 1.15}
	weakSimEnergyBand = Band{0.85, 1.15}
)

// checkWeakScaling is the weak-scaling metamorphic family:
//
//   - closed forms: MatMulWeakScalingSweep and NBodyWeakScalingSweep must
//     hold energy per flop exactly constant across p (the Eq. 10
//     corollary E/n³ independent of p — an algebraic identity of the
//     model, so the band is exact);
//   - live simulator: 2.5D matmul with the per-rank block fixed (n = q·nb,
//     p = q²) and the ring n-body with bodies per rank fixed (n = b·p)
//     must hold the per-rank flop rate and the priced energy per flop
//     inside snug bands as p grows — weak scaling measured on the runtime
//     rather than evaluated in closed form.
//
// The closed-form legs run on the sweep's machine; the live legs run on
// the sim-default machine (see checkSimMetamorphic for why) while still
// honouring the negative-testing cost mutation.
func checkWeakScaling(ck *checker, cfg Config) error {
	checkWeakClosedForms(ck, cfg)
	if err := checkSimWeakScalingMatMul(ck, cfg); err != nil {
		return err
	}
	return checkSimWeakScalingNBody(ck, cfg)
}

func checkWeakClosedForms(ck *checker, cfg Config) {
	m := cfg.Machine
	ps := []float64{16, 64, 256, 1024}

	const mmMem = 1 << 20
	mm := core.MatMulWeakScalingSweep(m, mmMem, ps)
	n0 := math.Sqrt(mmMem * ps[0])
	epf0 := mm[0].Energy / (2 * n0 * n0 * n0)
	for i, pt := range mm[1:] {
		n := math.Sqrt(mmMem * pt.P)
		epf := pt.Energy / (2 * n * n * n)
		ck.checkBand("weak/closed-energy-per-flop", "matmul-classical",
			Point{N: int(n), P: int(pt.P)}, "E/flop",
			epf, epf0, exactBand,
			fmt.Sprintf("Eq. 10 corollary: matmul energy per flop at p=%v vs p=%v (M fixed)", ps[i+1], ps[0]))
	}

	const nbMem, f = 1 << 10, 19
	nb := core.NBodyWeakScalingSweep(m, nbMem, ps, f)
	nbase := nbMem * ps[0]
	nepf0 := nb[0].Energy / (f * nbase * nbase)
	for i, pt := range nb[1:] {
		n := nbMem * pt.P
		nepf := pt.Energy / (f * n * n)
		ck.checkBand("weak/closed-energy-per-flop", "nbody",
			Point{N: int(n), P: int(pt.P)}, "E/flop",
			nepf, nepf0, exactBand,
			fmt.Sprintf("Eq. 10 corollary: n-body energy per interaction at p=%v vs p=%v (M fixed)", ps[i+1], ps[0]))
	}
}

func checkSimWeakScalingMatMul(ck *checker, cfg Config) error {
	m, cost := scalingCost(cfg)
	qs := []int{2, 4}
	if cfg.Level == Full {
		qs = append(qs, 8)
	}
	// Per-rank block edge nb = 24, fixed: per-rank memory 3·nb².
	rows, err := analytics.WeakMatMulCurve(m, cost, 24, qs)
	if err != nil {
		return fmt.Errorf("conformance: sim weak scaling: %w", err)
	}
	checkWeakCurve(ck, rows, qs)
	return nil
}

func checkSimWeakScalingNBody(ck *checker, cfg Config) error {
	m, cost := scalingCost(cfg)
	ps := []int{4, 8}
	if cfg.Level == Full {
		ps = append(ps, 16)
	}
	// Bodies per rank b = 32, fixed: M = b.
	rows, err := analytics.WeakNBodyCurve(m, cost, 32, ps)
	if err != nil {
		return fmt.Errorf("conformance: sim weak scaling: %w", err)
	}
	checkWeakCurve(ck, rows, nil)
	return nil
}

// checkWeakCurve checks every row of a measured weak-scaling curve against
// its first: the per-rank flop rate F/T and the energy per flop
// E/(p·F). qs are the matmul grid edges of the rows' points, nil for
// n-body.
func checkWeakCurve(ck *checker, rows []analytics.CurvePoint, qs []int) {
	rate := func(r analytics.CurvePoint) float64 { return r.RankFlops / r.SimT }
	epf := func(r analytics.CurvePoint) float64 { return r.EnergyJ / (float64(r.P) * r.RankFlops) }
	base := rows[0]
	for i, r := range rows[1:] {
		pt := Point{N: r.N, P: r.P}
		if qs != nil {
			pt.Q = qs[i+1]
		}
		ck.checkBand("weak/sim-flop-rate", r.Algorithm, pt, "F/T",
			rate(r), rate(base), weakSimRateBand,
			fmt.Sprintf("per-rank flop rate at n=%d p=%d vs n=%d p=%d (per-rank memory fixed)", r.N, r.P, base.N, base.P))
		ck.checkBand("weak/sim-energy-per-flop", r.Algorithm, pt, "E/flop",
			epf(r), epf(base), weakSimEnergyBand,
			fmt.Sprintf("measured energy per flop at n=%d p=%d vs n=%d p=%d (per-rank memory fixed)", r.N, r.P, base.N, base.P))
	}
}
