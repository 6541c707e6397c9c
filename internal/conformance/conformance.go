// Package conformance is the machine-checkable contract between the
// simulator in internal/sim and the paper's closed forms in internal/core
// and internal/bounds. It sweeps every distributed algorithm in the
// repository over a grid of (n, p, c, M) points and verifies these property
// families against the live simulator:
//
//   - differential: the measured per-rank F/W/S/M counters and the priced
//     T/E agree with the analytic expressions to exact or stated tolerance
//     (exact for the pricing identities the clock semantics guarantee,
//     pinned ratio bands for the order-notation cost shapes);
//   - metamorphic: the paper's invariants hold under parameter transforms —
//     inside the strong-scaling region p→k·p at fixed per-processor memory
//     divides T by k and holds total E constant, W never drops below the
//     communication lower bound, T and E are monotone in n, and
//     observed-vs-blind runs are bit-identical;
//   - replay: seeded random fault plans re-run twice produce identical
//     results — the determinism every other guarantee stands on;
//   - recovery: the self-healing runtime masks seeded silent drops with a
//     product bit-identical to the fault-free run, T/E overhead inside
//     pinned bands, bitwise-deterministic replays, and an energy-priced
//     recovery controller whose choice is the argmin of its own pricing;
//   - golden: per-rank counters, clocks, observer streams and a seeded
//     chaos run reproduce the digests committed in testdata/golden.json,
//     so determinism is pinned against history;
//   - payload-free: runs on phantom operands (sim.Phantom) — what /simulate
//     and the scaling curves execute — reproduce the numeric runs' per-rank
//     counters, ActivePairs and observer streams bit for bit;
//   - campaign: minimal reproducers discovered by the chaos-campaign
//     engine (internal/campaign) and pinned under testdata/campaign replay
//     their invariant violations bitwise.
//
// The engine is a property/table-test core usable from go test (see
// conformance_test.go), a fuzz target (FuzzConformance) and the
// Conformance section of cmd/reproduce, which prints the quick sweep's
// counts and violations.
// docs/CONFORMANCE.md catalogues the properties and explains how to extend
// the sweep when adding an algorithm.
package conformance

import (
	"fmt"
	"io"
	"math"
	"sort"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/sim"
)

// Level selects the sweep depth.
type Level int

// Sweep depths.
const (
	// Quick is the CI gate: every algorithm and property family at small
	// points, a few seconds of wall time.
	Quick Level = iota
	// Full widens the grids (larger n, p, more replication factors).
	Full
)

// String returns "quick" or "full".
func (l Level) String() string {
	if l == Full {
		return "full"
	}
	return "quick"
}

// Point is one sweep coordinate. Not every field is meaningful for every
// algorithm: matmul uses (N, Q, C), CAPS uses (N, K), n-body uses (N, P, C),
// FFT uses (N, P, Tree). Rectangular SUMMA points set the full
// (MDim, KDim, N) shape — C = A·B with A MDim×KDim and B KDim×N — on a
// PR×PC process grid with panel width Panel; square algorithms leave those
// fields zero.
type Point struct {
	N    int  `json:"n"`
	P    int  `json:"p"`
	Q    int  `json:"q,omitempty"`
	C    int  `json:"c,omitempty"`
	K    int  `json:"k,omitempty"`
	Tree bool `json:"tree,omitempty"`

	MDim  int `json:"m,omitempty"`
	KDim  int `json:"kdim,omitempty"`
	PR    int `json:"pr,omitempty"`
	PC    int `json:"pc,omitempty"`
	Panel int `json:"panel,omitempty"`
}

// String renders the point compactly for reports.
func (pt Point) String() string {
	s := fmt.Sprintf("n=%d p=%d", pt.N, pt.P)
	if pt.MDim > 0 {
		s = fmt.Sprintf("m=%d k=%d n=%d p=%d", pt.MDim, pt.KDim, pt.N, pt.P)
	}
	if pt.Q > 0 {
		s += fmt.Sprintf(" q=%d", pt.Q)
	}
	if pt.C > 0 {
		s += fmt.Sprintf(" c=%d", pt.C)
	}
	if pt.K > 0 {
		s += fmt.Sprintf(" k=%d", pt.K)
	}
	if pt.PR > 0 {
		s += fmt.Sprintf(" grid=%dx%d panel=%d", pt.PR, pt.PC, pt.Panel)
	}
	if pt.Tree {
		s += " tree"
	}
	return s
}

// Band is a stated tolerance interval on a measured/model ratio. The bands
// in algorithms.go are pinned golden values: the measured constants of the
// implementations, with enough slack for grid effects across the sweep but
// tight enough that a mispriced operation or a lost message moves a ratio
// out of its band.
type Band struct {
	Lo, Hi float64
}

// contains reports whether ratio lies in [Lo, Hi].
func (b Band) contains(ratio float64) bool { return ratio >= b.Lo && ratio <= b.Hi }

// exactBand is the band used for identities that must hold to floating
// accuracy (summation-order drift only).
var exactBand = Band{1 - 1e-9, 1 + 1e-9}

// Violation is one failed property check.
type Violation struct {
	// Property names the check ("differential/send-pricing",
	// "metamorphic/strong-scaling-energy", "replay/per-rank-stats", ...).
	Property string `json:"property"`
	// Algorithm names the algorithm under test; "closed-form" for checks
	// on the analytic expressions alone.
	Algorithm string `json:"algorithm"`
	// Point is the sweep coordinate, rendered by Point.String.
	Point string `json:"point"`
	// Quantity is the model quantity involved (F, W, S, M, T, E) when the
	// check concerns one.
	Quantity string `json:"quantity,omitempty"`
	// Got and Want are the two sides of the failed comparison.
	Got  float64 `json:"got"`
	Want float64 `json:"want"`
	// Detail explains the failure in prose.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s [%s %s]", v.Property, v.Algorithm, v.Point)
	if v.Quantity != "" {
		s += " " + v.Quantity
	}
	return fmt.Sprintf("%s: got %g, want %g — %s", s, v.Got, v.Want, v.Detail)
}

// Report is the machine-readable outcome of a sweep.
type Report struct {
	Machine    string      `json:"machine"`
	Level      string      `json:"level"`
	Points     int         `json:"points"`
	Checks     int         `json:"checks"`
	Violations []Violation `json:"violations"`
}

// Config parameterises a sweep.
type Config struct {
	// Machine prices the runs; zero value means machine.SimDefault().
	Machine machine.Params
	// Level selects the sweep depth.
	Level Level
	// Algorithms restricts the sweep to the named algorithms (see
	// AlgorithmNames); empty means all.
	Algorithms []string
	// MutateCost, when set, perturbs the sim.Cost derived from Machine
	// before every run. It exists for negative testing: the expectations
	// are still computed from the unmutated Machine, so a mutation that
	// matters (a mispriced Recv, an inflated βt) must surface as
	// violations. Production sweeps leave it nil.
	MutateCost func(*sim.Cost)
	// MutateResult, when set, perturbs every finished run's measured
	// counters before the checks see them. It exists for negative testing
	// of the bounds family: an under-counting simulator (words recorded
	// below what was actually moved) cannot be expressed as a cost
	// mutation, but must still be caught by the lower-bound floor.
	// Production sweeps leave it nil.
	MutateResult func(*sim.Result)
	// Verbose, when non-nil, receives one line per band check with the
	// measured ratio — the input to the band-calibration procedure in
	// docs/CONFORMANCE.md (CONF_VERBOSE=1 on the full-sweep tests wires
	// it to stderr).
	Verbose io.Writer
}

// DefaultSeeds key the fault-plan replays and the recovery points.
var DefaultSeeds = []uint64{1, 0xDEADBEEF, 0x9E3779B97F4A7C15}

// checker accumulates violations and check counts for one sweep.
type checker struct {
	m       machine.Params
	rep     *Report
	verbose io.Writer
}

// violate records a failed check.
func (c *checker) violate(v Violation) {
	c.rep.Violations = append(c.rep.Violations, v)
}

// checkBand verifies got/want ∈ band (want > 0) and records a violation
// otherwise. Every call counts as one check.
func (c *checker) checkBand(property, alg string, pt Point, quantity string, got, want float64, band Band, detail string) {
	c.rep.Checks++
	if want == 0 {
		if got == 0 {
			return
		}
		c.violate(Violation{Property: property, Algorithm: alg, Point: pt.String(), Quantity: quantity,
			Got: got, Want: want, Detail: detail + " (model is zero, measurement is not)"})
		return
	}
	ratio := got / want
	if c.verbose != nil {
		fmt.Fprintf(c.verbose, "ratio %-40s %-18s %-28s %-2s %.6g in [%g, %g]\n",
			property, alg, pt, quantity, ratio, band.Lo, band.Hi)
	}
	if !band.contains(ratio) {
		c.violate(Violation{Property: property, Algorithm: alg, Point: pt.String(), Quantity: quantity,
			Got: got, Want: want,
			Detail: fmt.Sprintf("%s: ratio %.6g outside band [%g, %g]", detail, ratio, band.Lo, band.Hi)})
	}
}

// checkTrue verifies a predicate.
func (c *checker) checkTrue(property, alg string, pt Point, quantity string, ok bool, got, want float64, detail string) {
	c.rep.Checks++
	if !ok {
		c.violate(Violation{Property: property, Algorithm: alg, Point: pt.String(), Quantity: quantity,
			Got: got, Want: want, Detail: detail})
	}
}

// cost derives the simulated cost from the machine parameters, applying the
// negative-testing mutation when configured.
func (cfg *Config) cost() sim.Cost {
	c := core.SimCost(cfg.Machine)
	if cfg.MutateCost != nil {
		cfg.MutateCost(&c)
	}
	return c
}

// Sweep runs every property family at every grid point and returns the
// violation report. An error is returned only for harness failures (an
// algorithm refusing to run); model disagreements are violations, not
// errors.
func Sweep(cfg Config) (*Report, error) {
	if cfg.Machine.Name == "" {
		cfg.Machine = machine.SimDefault()
	}
	rep := &Report{Machine: cfg.Machine.Name, Level: cfg.Level.String(), Violations: []Violation{}}
	ck := &checker{m: cfg.Machine, rep: rep, verbose: cfg.Verbose}

	checkClosedForms(ck, cfg)
	checkBoundsClosedForm(ck)
	checkRecoveryController(ck)

	for _, alg := range selectAlgorithms(cfg.Algorithms) {
		for _, pt := range alg.points(cfg.Level) {
			rep.Points++
			run, err := alg.run(cfg.cost(), cfg.Machine, pt)
			if err != nil {
				return rep, fmt.Errorf("conformance: %s %s: %w", alg.name, pt, err)
			}
			if cfg.MutateResult != nil {
				cfg.MutateResult(run.res)
			}
			checkDifferential(ck, alg.name, pt, run)
			checkBoundsFloor(ck, alg.name, pt, run)
		}
	}
	for _, family := range []func(*checker, Config) error{
		checkSimMetamorphic, checkWeakScaling, checkReplay, checkRecovery, checkGolden, checkPayloadFree, checkCampaign,
	} {
		if err := family(ck, cfg); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// AlgorithmNames lists the algorithms the sweep covers, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithms))
	for _, a := range algorithms {
		names = append(names, a.name)
	}
	sort.Strings(names)
	return names
}

// selectAlgorithms filters the registry by name; empty selects everything.
func selectAlgorithms(names []string) []algorithmDef {
	if len(names) == 0 {
		return algorithms
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []algorithmDef
	for _, a := range algorithms {
		if want[a.name] {
			out = append(out, a)
		}
	}
	return out
}

// relClose reports |got−want| ≤ tol·max(|got|, |want|, floor).
func relClose(got, want, tol float64) bool {
	scale := math.Max(math.Abs(got), math.Abs(want))
	if scale == 0 {
		return true
	}
	return math.Abs(got-want) <= tol*scale
}
