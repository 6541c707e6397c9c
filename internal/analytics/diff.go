package analytics

import (
	"fmt"
	"io"
	"math"
)

// tolerance bounds the acceptable deviation of measured/expected: a phase
// is flagged when its deviation leaves [1/(1+tolerance), 1+tolerance].
const tolerance = 0.02

// shareFloor suppresses flags on phases whose time share is below this
// fraction on both sides: a 0.1% phase running 3x slow is noise, not a
// bottleneck.
const shareFloor = 0.02

// DiffOptions parameterizes the divide operator.
type DiffOptions struct {
	// ExpectedRatio is the predicted per-phase time ratio span(B)/span(A):
	// pA/pB (i.e. 1/k) for a perfect-strong-scaling comparison at k× the
	// processors, 1 for a same-configuration comparison (two commits, or a
	// clean run against a degraded one). Zero defaults to 1.
	ExpectedRatio float64
	// PlateauP optionally carries the predicted perfect-scaling plateau
	// endpoint p* for the configuration under comparison, and PlateauBound
	// the name of the memory-independent bound that binds past it (see
	// internal/bounds). When side B sits past p*, the report's Wall line
	// names the wall, so a sub-1 efficiency is attributed to the lower
	// bound rather than read as an implementation regression. Zero leaves
	// the annotation off.
	PlateauP     float64
	PlateauBound string
}

// PhaseDiff is one phase's row of a profile division.
type PhaseDiff struct {
	Name string `json:"name"`
	// SpanA and SpanB are the phase makespans (Span.Max) on each side;
	// zero when the phase exists only on the other side.
	SpanA float64 `json:"span_a_s"`
	SpanB float64 `json:"span_b_s"`
	// Ratio is SpanB/SpanA (Inf for phases new in B), Expected the
	// predicted ratio, and Deviation = Ratio/Expected — 1 means the phase
	// scaled exactly as the model says.
	Ratio     float64 `json:"ratio"`
	Expected  float64 `json:"expected"`
	Deviation float64 `json:"deviation"`
	// Efficiency is Expected/Ratio, the per-phase scaling efficiency
	// (1 = on prediction, <1 = this phase stopped scaling).
	Efficiency float64 `json:"efficiency"`
	// ExcessS is SpanB − SpanA·Expected: the absolute virtual seconds this
	// phase costs beyond prediction. The bottleneck is the max-excess
	// flagged phase.
	ExcessS float64 `json:"excess_s"`
	// EnergyA/B are the phase's machine-wide energy on each side.
	EnergyA float64 `json:"energy_a_j"`
	EnergyB float64 `json:"energy_b_j"`
	// ShareA/B are the phase's time share of each run.
	ShareA float64 `json:"share_a"`
	ShareB float64 `json:"share_b"`
	// Flagged marks a deviation beyond tolerance on a phase above the
	// share floor.
	Flagged bool `json:"flagged"`
}

// DiffReport is the result of dividing profile B by profile A.
type DiffReport struct {
	A, B *PhaseProfile `json:"-"`
	// Label summarizes the two sides ("p=16 -> p=64").
	Label string `json:"label"`
	// TotalRatio is T(B)/T(A); Expected the predicted ratio; Efficiency
	// Expected/TotalRatio for the whole run.
	TotalRatio float64 `json:"total_ratio"`
	Expected   float64 `json:"expected"`
	Efficiency float64 `json:"efficiency"`
	// EnergyRatio is E(B)/E(A) — ≈1 inside the paper's perfect-scaling
	// region regardless of p.
	EnergyRatio float64     `json:"energy_ratio"`
	Phases      []PhaseDiff `json:"phases"`
	// Bottleneck names the flagged phase with the largest excess time; ""
	// when no phase is flagged.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Wall explains an expected efficiency loss: when side B's processor
	// count lies past the predicted perfect-scaling plateau end
	// (DiffOptions.PlateauP), it names the memory-independent bound that
	// binds there.
	Wall string `json:"wall,omitempty"`
}

// Diff divides profile b by profile a, phase by phase: the Hatchet-style
// divide operator specialized to scaling analysis. Phases are matched by
// name; a phase present on only one side gets a one-sided row (flagged
// when its share clears the floor — a phase that appeared or vanished is
// itself a scaling signal).
func Diff(a, b *PhaseProfile, opt DiffOptions) *DiffReport {
	if opt.ExpectedRatio == 0 {
		opt.ExpectedRatio = 1
	}
	rep := &DiffReport{
		A: a, B: b,
		Label:    fmt.Sprintf("p=%d -> p=%d", a.P, b.P),
		Expected: opt.ExpectedRatio,
	}
	if a.T > 0 {
		rep.TotalRatio = b.T / a.T
		rep.Efficiency = opt.ExpectedRatio / rep.TotalRatio
	}
	if ea := a.Energy.Total(); ea > 0 {
		rep.EnergyRatio = b.Energy.Total() / ea
	}
	if opt.PlateauP > 0 && float64(b.P) >= opt.PlateauP*(1-1e-12) {
		rep.Wall = fmt.Sprintf(
			"p=%d is at or past the perfect-scaling plateau end p* = %.4g: the %s bound binds — hit the memory-independent wall",
			b.P, opt.PlateauP, opt.PlateauBound)
	}

	lo, hi := 1/(1+tolerance), 1+tolerance
	seen := map[string]bool{}
	worstExcess := 0.0
	add := func(pa, pb *PhaseStats, name string) {
		d := PhaseDiff{Name: name, Expected: opt.ExpectedRatio}
		if pa != nil {
			d.SpanA = pa.Span.Max
			d.EnergyA = pa.Energy.Total()
			d.ShareA = pa.TimeShare(a.T)
		}
		if pb != nil {
			d.SpanB = pb.Span.Max
			d.EnergyB = pb.Energy.Total()
			d.ShareB = pb.TimeShare(b.T)
		}
		switch {
		case pa == nil || d.SpanA == 0:
			d.Ratio = math.Inf(1)
			d.Deviation = math.Inf(1)
			d.Efficiency = 0
		default:
			d.Ratio = d.SpanB / d.SpanA
			d.Deviation = d.Ratio / d.Expected
			if d.Ratio > 0 {
				d.Efficiency = d.Expected / d.Ratio
			}
		}
		d.ExcessS = d.SpanB - d.SpanA*d.Expected
		significant := d.ShareA >= shareFloor || d.ShareB >= shareFloor
		if significant && (d.Deviation < lo || d.Deviation > hi) {
			d.Flagged = true
			if d.ExcessS > worstExcess {
				worstExcess = d.ExcessS
				rep.Bottleneck = d.Name
			}
		}
		rep.Phases = append(rep.Phases, d)
	}
	for i := range a.Phases {
		pa := &a.Phases[i]
		seen[pa.Name] = true
		add(pa, b.Phase(pa.Name), pa.Name)
	}
	for i := range b.Phases {
		pb := &b.Phases[i]
		if !seen[pb.Name] {
			add(nil, pb, pb.Name)
		}
	}
	return rep
}

// WriteText renders the diff as an annotated table. Flagged phases carry a
// "<<" marker; the bottleneck line names the scaling culprit.
func (r *DiffReport) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("scaling diff %s: T %.6g s -> %.6g s (ratio %.4g, expected %.4g, efficiency %.3f)\n",
		r.Label, r.A.T, r.B.T, r.TotalRatio, r.Expected, r.Efficiency); err != nil {
		return err
	}
	if err := p("energy %.6g J -> %.6g J (ratio %.4g)\n", r.A.Energy.Total(), r.B.Energy.Total(), r.EnergyRatio); err != nil {
		return err
	}
	if err := p("%-16s %12s %12s %8s %8s %10s %9s\n",
		"phase", "span A (s)", "span B (s)", "ratio", "expect", "efficiency", "excess"); err != nil {
		return err
	}
	for _, d := range r.Phases {
		mark := ""
		if d.Flagged {
			mark = "  << off prediction"
			if d.Name == r.Bottleneck {
				mark = "  << BOTTLENECK"
			}
		}
		if err := p("%-16s %12.5g %12.5g %8.3g %8.3g %10.3f %+9.3g%s\n",
			d.Name, d.SpanA, d.SpanB, d.Ratio, d.Expected, d.Efficiency, d.ExcessS, mark); err != nil {
			return err
		}
	}
	if r.Bottleneck != "" {
		if err := p("scaling bottleneck: %s (%+.4g s beyond prediction)\n", r.Bottleneck, excessOf(r)); err != nil {
			return err
		}
	} else if err := p("all phases within tolerance of the predicted scaling\n"); err != nil {
		return err
	}
	if r.Wall != "" {
		return p("note: %s\n", r.Wall)
	}
	return nil
}

// excessOf returns the bottleneck phase's excess seconds.
func excessOf(r *DiffReport) float64 {
	for _, d := range r.Phases {
		if d.Name == r.Bottleneck {
			return d.ExcessS
		}
	}
	return 0
}
