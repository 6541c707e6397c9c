package conformance

import (
	"os"
	"strings"
	"testing"

	"perfscale/internal/machine"
	"perfscale/internal/sim"
)

// TestSweepQuick is the tier-1 gate: the quick sweep over every algorithm
// and property family must pass with zero violations.
func TestSweepQuick(t *testing.T) {
	rep, err := Sweep(Config{Level: Quick})
	if err != nil {
		t.Fatalf("sweep failed to run: %v", err)
	}
	if rep.Points == 0 || rep.Checks == 0 {
		t.Fatalf("sweep ran nothing: %d points, %d checks", rep.Points, rep.Checks)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("quick sweep: %d points, %d checks, %d violations", rep.Points, rep.Checks, len(rep.Violations))
}

// TestSweepFull widens the grids; skipped under -short so the quick CI
// path stays fast. Set CONF_VERBOSE=1 to dump every band ratio — the
// input to the calibration procedure in docs/CONFORMANCE.md.
func TestSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	cfg := Config{Level: Full}
	if os.Getenv("CONF_VERBOSE") != "" {
		cfg.Verbose = os.Stderr
	}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("sweep failed to run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("full sweep: %d points, %d checks, %d violations", rep.Points, rep.Checks, len(rep.Violations))
}

// TestSweepJaketown prices the sweep on the paper's case-study machine:
// the properties are machine-independent and must hold under realistic
// parameters too, not just the round-numbered sim default.
func TestSweepJaketown(t *testing.T) {
	if testing.Short() {
		t.Skip("extra machine sweep skipped in -short mode")
	}
	m, err := machine.ByName("jaketown")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: m, Level: Full}
	if os.Getenv("CONF_VERBOSE") != "" {
		cfg.Verbose = os.Stderr
	}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("sweep failed to run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestAlgorithmFilter restricts the sweep to one algorithm.
func TestAlgorithmFilter(t *testing.T) {
	rep, err := Sweep(Config{Level: Quick, Algorithms: []string{"fft"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != len(fftPoints(Quick)) {
		t.Fatalf("filtered sweep ran %d points, want %d", rep.Points, len(fftPoints(Quick)))
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestAlgorithmNamesSorted pins the registry listing.
func TestAlgorithmNamesSorted(t *testing.T) {
	names := AlgorithmNames()
	if len(names) != len(algorithms) {
		t.Fatalf("AlgorithmNames returned %d names, registry has %d", len(names), len(algorithms))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// --- Negative tests: the harness must catch a deliberately broken model ---

// negativeSweep runs the quick differential sweep on one algorithm with a
// cost mutation and returns the violated property names.
func negativeSweep(t *testing.T, mutate func(*sim.Cost)) map[string]int {
	t.Helper()
	rep, err := Sweep(Config{
		Level:      Quick,
		Algorithms: []string{"matmul-2.5d"},
		MutateCost: mutate,
	})
	if err != nil {
		t.Fatalf("negative sweep failed to run: %v", err)
	}
	props := map[string]int{}
	for _, v := range rep.Violations {
		props[v.Property]++
	}
	return props
}

// TestCatchesMispricedRecv injects the canonical model error of the
// acceptance criteria: the simulator silently switches to ChargeReceiver
// semantics (receives are priced αt+βt·k) while the model still assumes
// receivers only wait. The differential family must catch it.
func TestCatchesMispricedRecv(t *testing.T) {
	props := negativeSweep(t, func(c *sim.Cost) { c.ChargeReceiver = true })
	if props["differential/recv-pricing"] == 0 {
		t.Fatalf("mispriced Recv not caught; violations: %v", props)
	}
}

// TestCatchesInflatedBeta perturbs the simulated per-word time by 1%
// relative to the machine the expectations price with: the send-pricing
// identity must flag every communicating rank.
func TestCatchesInflatedBeta(t *testing.T) {
	props := negativeSweep(t, func(c *sim.Cost) { c.BetaT *= 1.01 })
	if props["differential/send-pricing"] == 0 {
		t.Fatalf("inflated βt not caught; violations: %v", props)
	}
}

// TestCatchesWrongMessageSizing shrinks the network's maximum message so
// ⌈k/m⌉ explodes: the latency-dependent bands must move.
func TestCatchesWrongMessageSizing(t *testing.T) {
	props := negativeSweep(t, func(c *sim.Cost) { c.MaxMsgWords = 7 })
	if len(props) == 0 {
		t.Fatal("fragmented message sizing produced no violations")
	}
}

// TestCatchesUnderCountedWords is the bounds family's negative test: a
// simulator that under-records communication (here: every rank's word
// counters scaled to a quarter of what was moved) must fall below the
// exact-constant lower-bound floor and be caught — on square 2.5D points
// and on rectangular SUMMA shapes alike. The clean runs of the same
// algorithms (TestSweepQuick and the green half below) pass the identical
// checks, so this stays red-then-green.
func TestCatchesUnderCountedWords(t *testing.T) {
	algs := []string{"matmul-2.5d", "matmul-summa-rect"}
	for _, alg := range algs {
		t.Run(alg, func(t *testing.T) {
			rep, err := Sweep(Config{
				Level:      Quick,
				Algorithms: []string{alg},
				MutateResult: func(res *sim.Result) {
					for i := range res.PerRank {
						res.PerRank[i].WordsSent *= 0.25
						res.PerRank[i].WordsRecv *= 0.25
					}
				},
			})
			if err != nil {
				t.Fatalf("negative sweep failed to run: %v", err)
			}
			floors := 0
			for _, v := range rep.Violations {
				if v.Property == "bounds/floor" {
					floors++
				}
			}
			if floors == 0 {
				t.Fatalf("under-counted words not caught by bounds/floor; violations: %v", rep.Violations)
			}
			// Green half: the same sweep without the mutation is clean.
			clean, err := Sweep(Config{Level: Quick, Algorithms: []string{alg}})
			if err != nil {
				t.Fatalf("clean sweep failed to run: %v", err)
			}
			for _, v := range clean.Violations {
				t.Errorf("clean sweep violation: %s", v)
			}
		})
	}
}

// TestBoundsFamilyCoversAllAlgorithms asserts every registry entry carries
// a non-empty composite bound set at its quick points — the bounds family
// must be load-bearing for all seven original algorithms plus the
// rectangular SUMMA entry, not just matmul.
func TestBoundsFamilyCoversAllAlgorithms(t *testing.T) {
	cfg := Config{Level: Quick}
	cfg.Machine = machine.SimDefault()
	for _, alg := range algorithms {
		pt := alg.points(Quick)[0]
		run, err := alg.run(cfg.cost(), cfg.Machine, pt)
		if err != nil {
			t.Fatalf("%s %s: %v", alg.name, pt, err)
		}
		if len(run.lower.All) == 0 {
			t.Errorf("%s: empty composite bound set", alg.name)
			continue
		}
		moved := maxWordsMoved(run.res)
		max := run.lower.Max()
		if moved < max.Words {
			t.Errorf("%s %s: moved %g below its own bound %g (%s)", alg.name, pt, moved, max.Words, max.Name)
		}
		t.Logf("%-18s %-28s moved %10.4g  bound %10.4g (%s)", alg.name, pt, moved, max.Words, max.Name)
	}
}

// TestViolationString pins the rendered form the reproduce report prints.
func TestViolationString(t *testing.T) {
	v := Violation{
		Property: "differential/model-band", Algorithm: "fft",
		Point: Point{N: 512, P: 8, Tree: true}.String(), Quantity: "W",
		Got: 2, Want: 1, Detail: "ratio out of band",
	}
	s := v.String()
	for _, want := range []string{"differential/model-band", "fft", "n=512 p=8 tree", "W", "ratio out of band"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation string %q missing %q", s, want)
		}
	}
}
