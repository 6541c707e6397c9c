package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"perfscale/internal/analytics"
	"perfscale/internal/conformance"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/obs"
	"perfscale/internal/report"
	"perfscale/internal/sim"
)

// curves renders the quick efficiency-vs-p curves on simdefault, the rows
// of the golden file BENCH_scaling.json.
func (r *reporter) curves() {
	rows, err := analytics.QuickCurves(machine.SimDefault())
	if err != nil {
		r.fail(err)
		return
	}
	t := report.NewTable("",
		"family", "algorithm", "n", "p", "c", "sim T (s)", "E (J)", "efficiency", "predicted", "E ratio", "plateau p*", "binding bound")
	for _, c := range rows {
		t.AddRow(c.Family, c.Algorithm, c.N, c.P, c.C, c.SimT, c.EnergyJ, c.Efficiency, c.Predicted, c.EnergyRatio,
			c.PlateauP, c.PlateauBound)
	}
	r.table(t)
	r.p("Efficiency is measured against each family's first point; predicted is the same ratio from the closed forms of internal/core. Plateau p* is the predicted end of perfect strong scaling for the row's n and M; the binding bound is the lower bound that holds at the row's p. These rows, with their phase spans, are BENCH_scaling.json, which `go test ./internal/analytics -run CurvesGolden` compares byte for byte.")
}

// diagnose runs 2.5D matmul clean, then again with β×50 on every link
// inside the multiply-shift phase's virtual-time window, and divides the
// two phase profiles: the diff must name multiply-shift as the bottleneck.
func (r *reporter) diagnose() {
	const n, q, phase = 64, 4, "multiply-shift"
	m := machine.SimDefault()
	a, b := matrix.Random(n, n, 31), matrix.Random(n, n, 32)
	profile := func(cost sim.Cost) (*analytics.PhaseProfile, error) {
		col := obs.NewCollector(q * q)
		cost.Observers = []sim.Observer{col}
		res, err := matmul.TwoPointFiveD(cost, q, 1, a, b)
		if err != nil {
			return nil, err
		}
		return analytics.BuildProfile(m, res.Sim, col, analytics.Meta{Algorithm: "matmul", N: n, C: 1}), nil
	}
	clean, err := profile(core.SimCost(m))
	if err != nil {
		r.fail(err)
		return
	}
	ps := clean.Phase(phase)
	if ps == nil {
		r.fail(fmt.Errorf("the clean run has no %s phase", phase))
		return
	}
	slow := core.SimCost(m)
	slow.Faults = &sim.FaultPlan{Seed: 1, Degraded: []sim.DegradedLink{{
		Src: -1, Dst: -1, From: ps.Start, Until: ps.End, AlphaFactor: 1, BetaFactor: 50,
	}}}
	degraded, err := profile(slow)
	if err != nil {
		r.fail(err)
		return
	}
	rep := analytics.Diff(clean, degraded, analytics.DiffOptions{ExpectedRatio: 1})

	r.p("2.5D matmul (n=%d, q=4, c=1) on simdefault, clean (profile A) and with β×50 on every link inside the %s window (profile B). The diff expects ratio 1 per phase and must name %s as the bottleneck.", n, phase, phase)
	r.p("")
	for _, text := range []interface{ WriteText(io.Writer) error }{clean, degraded, rep} {
		var sb strings.Builder
		_ = text.WriteText(&sb) // a strings.Builder never fails
		r.pre(sb.String())
	}
	if rep.Bottleneck != phase {
		r.fail(fmt.Errorf("the diff names bottleneck %q, want %q", rep.Bottleneck, phase))
	}
}

// conformance runs the quick model-conformance sweep on simdefault, the
// grid CI gates on: every property family of internal/conformance. Wall
// time stays out of the section, so the report is byte-deterministic; each
// violation fails it.
func (r *reporter) conformance() {
	rep, err := conformance.Sweep(conformance.Config{Machine: machine.SimDefault(), Level: conformance.Quick})
	if err != nil {
		r.fail(err)
		return
	}
	r.p("Algorithms: %s.", strings.Join(conformance.AlgorithmNames(), ", "))
	r.p("")
	r.p("Quick sweep on %s: %d points, %d checks, %d violations. docs/CONFORMANCE.md catalogues the property families; `go test ./internal/conformance` runs the quick, full and jaketown sweeps.", rep.Machine, rep.Points, rep.Checks, len(rep.Violations))
	for _, v := range rep.Violations {
		r.fail(errors.New(v.String()))
	}
}
