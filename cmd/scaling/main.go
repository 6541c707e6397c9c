// Command scaling measures efficiency-vs-p curves on the live simulator,
// gates them against the committed baseline, and divides two phase
// profiles of one algorithm to name the phase that stopped scaling — the
// Hatchet-style divide operator of internal/analytics on the command line.
// Four modes:
//
//	scaling -curves [-json]
//	    the quick strong+weak efficiency-vs-p curves, with closed-form
//	    predictions and the predicted perfect-scaling plateau end per row;
//	    -json writes them as the curve file instead of a table
//	    (`scaling -curves -json -o BENCH_scaling.json` regenerates the
//	    committed baseline);
//
//	scaling -baseline BENCH_scaling.json [-o curves.json]
//	    regression gate: measure the curves, compare them with the baseline
//	    and exit 1 when any row or phase degraded beyond -tol; -o also
//	    writes the fresh curve file;
//
//	scaling -alg matmul -n 96 -q 4 -c 1 -c2 4
//	    run the algorithm at c and c2, diff the profiles against the
//	    perfect-strong-scaling prediction (span ratio pA/pB), flag the
//	    phases off the curve;
//
//	scaling -alg matmul -n 64 -q 4 -degrade multiply-shift -degrade-beta 50
//	    run clean, extract the named phase's virtual-time window, re-run
//	    with every link degraded inside that window, and diff — the tool
//	    must name the degraded phase as the bottleneck.
//
// With neither -curves nor -baseline it diffs. Output goes to stdout or
// the -o file; the gate prints its verdict to stdout. Bad usage exits 2,
// run and write failures exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"perfscale/internal/analytics"
	"perfscale/internal/bounds"
	"perfscale/internal/fft"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/obs"
	"perfscale/internal/report"
	"perfscale/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		curves   = flag.Bool("curves", false, "measure the efficiency-vs-p curves (strong + weak)")
		baseline = flag.String("baseline", "", "gate mode: measure the curves and compare them with this curve file")
		tol      = flag.Float64("tol", analytics.DefaultGateTolerance, "gate/diff tolerance")
		jsonOut  = flag.Bool("json", false, "emit JSON: the curve file with -curves, the profiles and diff otherwise")
		mach     = flag.String("machine", "simdefault", "machine preset name or .json parameter file")
		outPath  = flag.String("o", "", "output file (default stdout); with -baseline, the fresh curve file")

		alg          = flag.String("alg", "matmul", "diff mode algorithm: matmul, nbody, fft")
		n            = flag.Int("n", 96, "problem size (matrix dim, bodies, or FFT length)")
		q            = flag.Int("q", 4, "base grid: matmul p=q²·c, nbody/fft p=q·c")
		c            = flag.Int("c", 1, "replication of side A")
		c2           = flag.Int("c2", 0, "replication of side B (default: same as -c)")
		degrade      = flag.String("degrade", "", "degrade mode: slow every link inside the named phase's window on side B")
		degradeAlpha = flag.Float64("degrade-alpha", 1, "latency inflation factor for -degrade")
		degradeBeta  = flag.Float64("degrade-beta", 20, "per-word inflation factor for -degrade")
		expected     = flag.Float64("expected", 0, "override the expected span ratio B/A (default: pA/pB, or 1 with -degrade)")
	)
	flag.Parse()
	if *baseline != "" && (*curves || *jsonOut) {
		fmt.Fprintln(os.Stderr, "scaling: -baseline measures the curves itself and writes them with -o; drop -curves and -json")
		return 2
	}
	m, err := machine.Resolve(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 2
	}
	var base []analytics.CurvePoint
	if *baseline != "" {
		if base, err = analytics.LoadCurves(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			return 2
		}
	}

	w, closeOut, err := report.OpenOutput(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 1
	}
	var code int
	switch {
	case *baseline != "":
		code = runGate(w, *outPath != "", m, *mach, base, *tol)
	case *curves:
		code = runCurves(w, m, *mach, *jsonOut)
	default:
		code = runDiff(w, m, diffSpec{
			alg: *alg, n: *n, q: *q, c: *c, c2: *c2,
			degrade: *degrade, degradeAlpha: *degradeAlpha, degradeBeta: *degradeBeta,
			expected: *expected, tol: *tol, jsonOut: *jsonOut,
		})
	}
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "scaling: writing output:", err)
		code = 1
	}
	if err := closeOut(); err != nil {
		fmt.Fprintln(os.Stderr, "scaling: closing output:", err)
		code = 1
	}
	return code
}

// runCurves measures the quick strong+weak efficiency-vs-p curves. With
// jsonOut it writes them as the curve file, labelled with the -machine
// argument.
func runCurves(w *report.ErrWriter, m machine.Params, machName string, jsonOut bool) int {
	rows, err := analytics.QuickCurves(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 1
	}
	if jsonOut {
		return writeCurves(w, machName, rows)
	}
	t := report.NewTable("Efficiency-vs-p curves: measured vs closed-form prediction",
		"family", "algorithm", "n", "p", "c", "sim T (s)", "E (J)", "efficiency", "predicted", "E ratio", "plateau p*", "binding bound")
	for _, r := range rows {
		t.AddRow(r.Family, r.Algorithm, r.N, r.P, r.C, r.SimT, r.EnergyJ, r.Efficiency, r.Predicted, r.EnergyRatio,
			r.PlateauP, r.PlateauBound)
	}
	w.Println(t.Render())
	return 0
}

// writeCurves writes the curve file; a failed write is reported once, by
// run, from w.Err().
func writeCurves(w *report.ErrWriter, machName string, rows []analytics.CurvePoint) int {
	if err := analytics.WriteCurves(w, machName, rows); err != nil && w.Err() == nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 1
	}
	return 0
}

// runGate is the regression gate: it measures the curves, writes them to
// curvesOut when toFile is set, and prints every row or phase that
// degraded beyond tol against base to stdout.
func runGate(curvesOut *report.ErrWriter, toFile bool, m machine.Params, machName string, base []analytics.CurvePoint, tol float64) int {
	cur, err := analytics.QuickCurves(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 1
	}
	if toFile && writeCurves(curvesOut, machName, cur) != 0 {
		return 1
	}
	regs := analytics.CheckCurves(cur, base, tol)
	fmt.Printf("scaling gate: %d baseline rows, %d current rows, tolerance %.3g\n", len(base), len(cur), tol)
	for _, r := range regs {
		fmt.Println("REGRESSION:", r.String())
	}
	if len(regs) == 0 {
		fmt.Println("no scaling regressions")
	}
	if len(regs) > 0 {
		return 1
	}
	return 0
}

type diffSpec struct {
	alg                       string
	n, q, c, c2               int
	degrade                   string
	degradeAlpha, degradeBeta float64
	expected, tol             float64
	jsonOut                   bool
}

func runDiff(w *report.ErrWriter, m machine.Params, s diffSpec) int {
	if s.c2 == 0 {
		s.c2 = s.c
	}
	if s.degrade != "" && s.c2 != s.c {
		fmt.Fprintln(os.Stderr, "scaling: -degrade compares equal configurations; drop -c2")
		return 2
	}

	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords)}
	profA, err := runProfile(m, cost, s.alg, s.n, s.q, s.c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 2
	}

	costB := cost
	if s.degrade != "" {
		ps := profA.Phase(s.degrade)
		if ps == nil {
			fmt.Fprintf(os.Stderr, "scaling: run has no phase %q (phases:", s.degrade)
			for _, p := range profA.Phases {
				fmt.Fprintf(os.Stderr, " %s", p.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			return 2
		}
		costB.Faults = &sim.FaultPlan{
			Seed: 1,
			Degraded: []sim.DegradedLink{{
				Src: -1, Dst: -1,
				From: ps.Start, Until: ps.End,
				AlphaFactor: s.degradeAlpha, BetaFactor: s.degradeBeta,
			}},
		}
	}
	profB, err := runProfile(m, costB, s.alg, s.n, s.q, s.c2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		return 2
	}

	exp := s.expected
	if exp == 0 {
		exp = float64(profA.P) / float64(profB.P)
	}
	opt := analytics.DiffOptions{ExpectedRatio: exp, Tolerance: s.tol}
	// Annotate the comparison with the exact perfect-scaling plateau end for
	// the fixed problem and per-rank memory of this configuration, so an
	// efficiency dip past it is attributed to the memory-independent wall.
	switch s.alg {
	case "matmul":
		pl := bounds.ClassicalPlateau(float64(s.n), float64(s.n*s.n)/float64(s.q*s.q))
		opt.PlateauP, opt.PlateauBound = pl.PEnd, pl.IndependentBound
	case "nbody":
		pl := bounds.NBodyPlateau(float64(s.n), float64(s.n)/float64(s.q))
		opt.PlateauP, opt.PlateauBound = pl.PEnd, pl.IndependentBound
	}
	rep := analytics.Diff(profA, profB, opt)
	if s.jsonOut {
		buf, err := json.MarshalIndent(map[string]any{"a": profA, "b": profB, "diff": rep}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			return 1
		}
		w.Println(string(buf))
		return 0
	}
	if err := profA.WriteText(w); err != nil {
		return 1
	}
	w.Println()
	if err := profB.WriteText(w); err != nil {
		return 1
	}
	w.Println()
	if err := rep.WriteText(w); err != nil {
		return 1
	}
	return 0
}

// runProfile executes one observed run of the named algorithm and builds
// its phase profile.
func runProfile(m machine.Params, cost sim.Cost, alg string, n, q, c int) (*analytics.PhaseProfile, error) {
	var p int
	var runFn func() (*sim.Result, error)
	switch alg {
	case "matmul":
		p = q * q * c
		a := matrix.Random(n, n, 31)
		b := matrix.Random(n, n, 32)
		runFn = func() (*sim.Result, error) {
			res, err := matmul.TwoPointFiveD(cost, q, c, a, b)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		}
	case "nbody":
		p = q * c
		bodies := nbody.RandomBodies(n, 33)
		runFn = func() (*sim.Result, error) {
			res, err := nbody.Replicated(cost, p, c, bodies)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		}
	case "fft":
		p = q * c
		rng := rand.New(rand.NewSource(45))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		runFn = func() (*sim.Result, error) {
			res, err := fft.Distributed(cost, p, x, true)
			if err != nil {
				return nil, err
			}
			return res.Sim, nil
		}
	default:
		return nil, fmt.Errorf("unknown -alg %q (want matmul, nbody, or fft)", alg)
	}
	col := obs.NewCollector(p)
	cost.Observers = append(cost.Observers, col)
	res, err := runFn()
	if err != nil {
		return nil, fmt.Errorf("%s p=%d: %w", alg, p, err)
	}
	meta := analytics.Meta{Algorithm: alg, N: n, C: c}
	return analytics.BuildProfile(m, res, col, meta), nil
}
