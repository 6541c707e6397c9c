// Command reproduce runs the experiments of DESIGN.md — E1–E23, the
// rectangular bounds, the DESIGN §5 ablations, the efficiency-vs-p curves,
// the degraded-phase diagnosis and the quick model-conformance sweep — and
// writes a Markdown
// report with the measured values: the single-command reproduction of the
// paper's evaluation. Besides the simulator and model tables, the report
// carries the ASCII renderings of Figure 4(a)–(c) with the E(M) profile and
// the matmul companion region (E7–E9), the Section V question answers
// (E10), Tables I–II with their error columns (E11, E14), the Figure 6/7
// charts (E12, E13) and the energy price of resilience (E23). Sections
// whose numerics or shape claims do not hold say FAILED.
//
// Usage:
//
//	reproduce                  # every experiment, report to stdout
//	reproduce -o REPORT.md     # report to a file
//	reproduce -e E2,E23        # only these experiments, in registry order
//
// An unknown experiment id exits 2. Write failures and failed experiments
// exit 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

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

// experiment is one report section: id is what -e selects and what the
// heading starts with; run writes the section body.
type experiment struct {
	id, title string
	run       func(*reporter)
}

// experiments is the registry, in report order.
var experiments = []experiment{
	{"E1", "Figure 3: limits of communication strong scaling", (*reporter).e1},
	{"E2", "Perfect strong scaling of 2.5D matmul", (*reporter).e2},
	{"E3", "Eq. 11: energy at the 3D limit", (*reporter).e3},
	{"E4", "Strassen (CAPS) energy and scaling", (*reporter).e4},
	{"E5", "LU: bandwidth scales with replication, latency does not", (*reporter).e5},
	{"E6", "n-body perfect strong scaling", (*reporter).e6},
	{"E7–E9", "Figure 4: n-body execution regions", (*reporter).e789},
	{"E10", "Section V closed forms (n-body)", (*reporter).e10},
	{"E11", "Table I: case-study parameters", (*reporter).e11},
	{"E12", "Figure 6: scaling γe, βe, δe independently", (*reporter).e12},
	{"E13", "Figure 7: scaling the three parameters together", (*reporter).e13},
	{"E14", "Table II: device survey", (*reporter).e14},
	{"E15", "FFT: naive vs tree all-to-all", (*reporter).e15},
	{"E16", "Two-level machine model (Eqs. 12 and 17)", (*reporter).e16},
	{"E17", "Sequential model (Figure 1(a))", (*reporter).e17},
	{"E18", "BLAS2 (GEMV): the I+O-dominated regime", (*reporter).e18},
	{"E19", "Cholesky under the same bounds", (*reporter).e19},
	{"E20", "Heterogeneous ensembles (the paper's citation [7])", (*reporter).e20},
	{"E21", "Model accuracy against the simulator", (*reporter).e21},
	{"E22", "Weak scaling at constant energy per flop", (*reporter).e22},
	{"E23", "Energy price of resilience (extension)", (*reporter).e23},
	{"Ablations", "DESIGN §5 design choices", (*reporter).ablations},
	{"Rect", "Tight rectangular (m×k×n) matmul bounds", (*reporter).rect},
	{"Curves", "Efficiency-vs-p curves: measured vs closed-form prediction", (*reporter).curves},
	{"Diagnose", "Phase diff names a degraded phase", (*reporter).diagnose},
	{"Conformance", "Model-conformance sweep (quick grid)", (*reporter).conformance},
}

// selectExperiments parses the -e list into the set of registry ids it
// names; "-" stands for the en dash of "E7–E9".
func selectExperiments(list string) (map[string]bool, error) {
	picked := map[string]bool{}
	for _, want := range strings.Split(list, ",") {
		want = strings.TrimSpace(want)
		found := false
		for _, e := range experiments {
			if want == e.id || want == strings.ReplaceAll(e.id, "–", "-") {
				picked[e.id], found = true, true
			}
		}
		if !found {
			ids := make([]string, len(experiments))
			for i, e := range experiments {
				ids[i] = e.id
			}
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", want, strings.Join(ids, ", "))
		}
	}
	return picked, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("o", "", "output file (default stdout)")
	var picked map[string]bool // nil: every experiment
	flag.Func("e", "comma-separated experiment ids to run, in registry order (default: all)", func(list string) (err error) {
		picked, err = selectExperiments(list)
		return err
	})
	flag.Parse()

	w, closeOut, err := report.OpenOutput(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		return 1
	}
	r := &reporter{w: w}
	r.hdr()
	for _, e := range experiments {
		if picked == nil || picked[e.id] {
			r.section(e.id + " — " + e.title)
			e.run(r)
		}
	}

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

// bwCost is the bandwidth-dominated clock used by the toy-scale strong-
// scaling runs (the default preset's 1 µs latency would swamp the blocks).
var bwCost = sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}

func (r *reporter) e1() {
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
	m := machine.SimDefault()
	x := fft.RandomSignal(1024, 3)
	t := report.NewTable("Distributed FFT, n=1024, p=16", "exchange", "messages/rank", "words/rank", "sim time (s)")
	for _, tree := range []bool{false, true} {
		res, err := fft.Distributed(core.SimCost(m), 16, x, tree)
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
	tl := machine.JaketownTwoLevel()
	tl.EpsilonE = 1e-3
	if err := tl.Validate(); err != nil {
		r.fail(err)
		return
	}
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
	const n, q = 24, 4
	spd := matrix.RandomSPD(n, 5)
	chol, err := lu.Cholesky(sim.Cost{}, q, spd)
	if err != nil {
		r.fail(err)
		return
	}
	dd := matrix.RandomDiagDominant(n, 5)
	lures, err := lu.Stacked(sim.Cost{}, q, 1, dd)
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
	m := machine.Params{
		GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8,
		GammaE: 1e-9, BetaE: 4e-9, AlphaE: 1e-8, DeltaE: 1e-11, EpsilonE: 1e-4,
		MemWords: 1 << 30, MaxMsgWords: 1 << 24,
	}
	cost := core.SimCost(m)
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

func (r *reporter) e22() {
	m := machine.SimDefault()
	const mem = 1 << 22
	pts := core.MatMulWeakScalingSweep(m, mem, []float64{16, 64, 256, 1024, 4096})
	t := report.NewTable("Matmul, memory-constrained (M = 2²² words fixed, n = √(M·p))",
		"p", "n", "T (s)", "E (J)", "E/n³ (J)", "T/√p (s)")
	var e0, t0 float64
	for i, pt := range pts {
		n := math.Sqrt(mem * pt.P)
		perFlop, perRoot := pt.Energy/(n*n*n), pt.Time/math.Sqrt(pt.P)
		if i == 0 {
			e0, t0 = perFlop, perRoot
		}
		t.AddRow(pt.P, n, pt.Time, pt.Energy, perFlop, perRoot)
		if math.Abs(perFlop-e0) > 1e-9*e0 || math.Abs(perRoot-t0) > 1e-9*t0 {
			r.fail(fmt.Errorf("weak scaling at p=%g: E/n³ = %g, T/√p = %g; want %g and %g", pt.P, perFlop, perRoot, e0, t0))
		}
	}
	r.table(t)
	r.p("Energy per flop stays constant as p grows 256x while the runtime grows as √p: weak scaling at constant energy efficiency, the corollary of Eq. 10.")
}

// rect reports the tight rectangular (m×k×n) lower bounds of Al Daas et
// al.: first the closed-form aspect-ratio regime map for a few shapes, then
// live rectangular SUMMA runs whose busiest-rank traffic must sit above the
// bound that applies at each grid.
func (r *reporter) rect() {
	t := report.NewTable("Aspect-ratio regimes (Al Daas et al.)",
		"m", "k", "n", "one-large until p", "two-large until p", "regime at p=64", "bound W at p=64")
	for _, s := range [][3]float64{
		{4096, 64, 64},
		{4096, 4, 4096},
		{256, 1024, 64},
		{512, 512, 512},
	} {
		p1, p2 := bounds.RectRegimeBoundaries(s[0], s[1], s[2])
		wb, regime := bounds.RectMemIndepWords(s[0], s[1], s[2], 64)
		t.AddRow(s[0], s[1], s[2], report.FormatFloat(p1), report.FormatFloat(p2), regime.String(), wb)
	}
	r.table(t)

	const mDim, kDim, n, panel = 48, 16, 32, 4
	a := matrix.Random(mDim, kDim, 51)
	b := matrix.Random(kDim, n, 52)
	t2 := report.NewTable(fmt.Sprintf("Rectangular SUMMA, m=%d k=%d n=%d: measured vs lower bound", mDim, kDim, n),
		"grid", "p", "sim T (s)", "max W moved", "bound W", "regime")
	for _, g := range [][2]int{{1, 2}, {2, 2}, {2, 4}, {4, 4}} {
		pr, pc := g[0], g[1]
		res, err := matmul.SUMMARect(core.SimCost(machine.SimDefault()), pr, pc, panel, a, b)
		if err != nil {
			r.fail(fmt.Errorf("rect summa %dx%d: %w", pr, pc, err))
			return
		}
		var moved float64
		for _, s := range res.Sim.PerRank {
			moved = math.Max(moved, s.WordsSent+s.WordsRecv)
		}
		wb, regime := bounds.RectMemIndepWords(float64(mDim), float64(kDim), float64(n), float64(pr*pc))
		t2.AddRow(fmt.Sprintf("%dx%d", pr, pc), pr*pc, res.Sim.Time(), moved, wb, regime.String())
		if moved < wb {
			r.fail(fmt.Errorf("rect summa %dx%d moved %g words, below the %g-word lower bound", pr, pc, moved, wb))
		}
	}
	r.table(t2)
}
