// Command scalediff divides two phase profiles of the same algorithm and
// names the phase that stopped scaling — the Hatchet-style divide operator
// of internal/analytics on the command line. Three modes:
//
//	scalediff -alg matmul -n 96 -q 4 -c 1 -c2 4
//	    run the algorithm at c and c2, diff the profiles against the
//	    perfect-strong-scaling prediction (span ratio pA/pB), flag the
//	    phases off the curve;
//
//	scalediff -alg matmul -n 64 -q 4 -degrade multiply-shift -degrade-beta 50
//	    run clean, extract the named phase's virtual-time window, re-run
//	    with every link degraded inside that window, and diff — the tool
//	    must name the degraded phase as the bottleneck;
//
//	scalediff -baseline BENCH_scaling.json -current curves.json
//	    regression gate: compare efficiency-vs-p curve files and exit 1
//	    when any row or phase degraded beyond -tol.
//
// Output is an annotated text table by default, JSON with -json, to stdout
// or -o file. Write failures exit non-zero.
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
		alg  = flag.String("alg", "matmul", "algorithm: matmul, nbody, fft")
		n    = flag.Int("n", 96, "problem size (matrix dim, bodies, or FFT length)")
		q    = flag.Int("q", 4, "base grid: matmul p=q²·c, nbody/fft p=q·c")
		c    = flag.Int("c", 1, "replication of side A")
		c2   = flag.Int("c2", 0, "replication of side B (default: same as -c)")
		mach = flag.String("machine", "simdefault", "machine preset name or .json parameter file")

		degrade      = flag.String("degrade", "", "degrade mode: slow every link inside the named phase's window on side B")
		degradeAlpha = flag.Float64("degrade-alpha", 1, "latency inflation factor for -degrade")
		degradeBeta  = flag.Float64("degrade-beta", 20, "per-word inflation factor for -degrade")

		baseline = flag.String("baseline", "", "gate mode: committed curves file to compare against")
		current  = flag.String("current", "", "gate mode: freshly measured curves file")
		tol      = flag.Float64("tol", analytics.DefaultGateTolerance, "gate/diff tolerance")

		expected = flag.Float64("expected", 0, "override the expected span ratio B/A (default: pA/pB, or 1 with -degrade)")
		jsonOut  = flag.Bool("json", false, "emit JSON instead of the annotated table")
		outPath  = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	w, closeOut, err := report.OpenOutput(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalediff:", err)
		return 1
	}
	code := func() int {
		if *baseline != "" || *current != "" {
			return runGate(w, *baseline, *current, *tol, *jsonOut)
		}
		return runDiff(w, diffSpec{
			alg: *alg, n: *n, q: *q, c: *c, c2: *c2,
			mach:    *mach,
			degrade: *degrade, degradeAlpha: *degradeAlpha, degradeBeta: *degradeBeta,
			expected: *expected, tol: *tol, jsonOut: *jsonOut,
		})
	}()
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "scalediff: writing report:", err)
		code = 1
	}
	if err := closeOut(); err != nil {
		fmt.Fprintln(os.Stderr, "scalediff: closing output:", err)
		code = 1
	}
	return code
}

// runGate is the regression-gate mode.
func runGate(w *report.ErrWriter, basePath, curPath string, tol float64, jsonOut bool) int {
	if basePath == "" || curPath == "" {
		fmt.Fprintln(os.Stderr, "scalediff: gate mode needs both -baseline and -current")
		return 2
	}
	base, err := analytics.LoadCurves(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalediff:", err)
		return 2
	}
	cur, err := analytics.LoadCurves(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalediff:", err)
		return 2
	}
	regs := analytics.CheckCurves(cur, base, tol)
	if jsonOut {
		writeJSON(w, map[string]any{"regressions": regs, "baseline_rows": len(base), "current_rows": len(cur)})
	} else {
		w.Printf("scaling gate: %d baseline rows, %d current rows, tolerance %.3g\n", len(base), len(cur), tol)
		for _, r := range regs {
			w.Println("REGRESSION:", r.String())
		}
		if len(regs) == 0 {
			w.Println("no scaling regressions")
		}
	}
	if len(regs) > 0 {
		return 1
	}
	return 0
}

type diffSpec struct {
	alg                       string
	n, q, c, c2               int
	mach                      string
	degrade                   string
	degradeAlpha, degradeBeta float64
	expected, tol             float64
	jsonOut                   bool
}

func runDiff(w *report.ErrWriter, s diffSpec) int {
	m, err := machine.Resolve(s.mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalediff:", err)
		return 2
	}
	if s.c2 == 0 {
		s.c2 = s.c
	}
	if s.degrade != "" && s.c2 != s.c {
		fmt.Fprintln(os.Stderr, "scalediff: -degrade compares equal configurations; drop -c2")
		return 2
	}

	cost := sim.Cost{GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords)}
	profA, err := runProfile(m, cost, s.alg, s.n, s.q, s.c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalediff:", err)
		return 2
	}

	costB := cost
	if s.degrade != "" {
		ps := profA.Phase(s.degrade)
		if ps == nil {
			fmt.Fprintf(os.Stderr, "scalediff: run has no phase %q (phases:", s.degrade)
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
		fmt.Fprintln(os.Stderr, "scalediff:", err)
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
		writeJSON(w, map[string]any{"a": profA, "b": profB, "diff": rep})
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

func writeJSON(w *report.ErrWriter, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalediff:", err)
		return
	}
	w.Println(string(buf))
}
