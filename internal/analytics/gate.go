package analytics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// DefaultGateTolerance is the relative slack the regression gate allows
// before a curve row counts as degraded. The curves are deterministic
// virtual-time quantities, so the tolerance absorbs intentional small
// model/constant adjustments between baseline updates, not measurement
// noise.
const DefaultGateTolerance = 0.02

// Regression is one scaling-gate failure: a curve row (or one of its
// phases) that degraded beyond tolerance relative to the baseline.
type Regression struct {
	// Key identifies the curve row (family/algorithm/n/p/c).
	Key string `json:"key"`
	// Field names the degraded quantity: "efficiency", "sim_time_s",
	// "phase:<name>" for a per-phase span, or "missing" when the row or
	// phase vanished from the current sweep.
	Field    string  `json:"field"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Change is the relative degradation (positive = worse).
	Change float64 `json:"change"`
}

func (r Regression) String() string {
	if r.Field == "missing" {
		return fmt.Sprintf("%s: row present in baseline but missing from current sweep", r.Key)
	}
	return fmt.Sprintf("%s %s: baseline %.6g, current %.6g (%.2f%% worse than tolerance allows)",
		r.Key, r.Field, r.Baseline, r.Current, 100*r.Change)
}

// CheckCurves compares freshly measured curves against a committed
// baseline and returns every regression beyond tol (<= 0 selects
// DefaultGateTolerance):
//
//   - a baseline row missing from current is a regression (coverage must
//     not silently shrink; new rows in current are fine);
//   - scaling efficiency below baseline·(1−tol) is a regression;
//   - virtual time above baseline·(1+tol) is a regression (the absolute
//     curve, not just its shape);
//   - each baseline phase span above baseline·(1+tol) is a regression
//     named "phase:<name>" — this is what points at the phase that
//     stopped scaling; a vanished phase is reported as missing.
//
// Improvements never fail the gate; they call for a baseline refresh.
func CheckCurves(current, baseline []CurvePoint, tol float64) []Regression {
	if tol <= 0 {
		tol = DefaultGateTolerance
	}
	cur := map[string]CurvePoint{}
	for _, row := range current {
		cur[row.Key()] = row
	}
	var regs []Regression
	for _, base := range baseline {
		key := base.Key()
		now, ok := cur[key]
		if !ok {
			regs = append(regs, Regression{Key: key, Field: "missing"})
			continue
		}
		if base.Efficiency > 0 && now.Efficiency < base.Efficiency*(1-tol) {
			regs = append(regs, Regression{
				Key: key, Field: "efficiency",
				Baseline: base.Efficiency, Current: now.Efficiency,
				Change: 1 - now.Efficiency/base.Efficiency,
			})
		}
		if base.SimT > 0 && now.SimT > base.SimT*(1+tol) {
			regs = append(regs, Regression{
				Key: key, Field: "sim_time_s",
				Baseline: base.SimT, Current: now.SimT,
				Change: now.SimT/base.SimT - 1,
			})
		}
		names := make([]string, 0, len(base.PhaseSpans))
		for name := range base.PhaseSpans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bs := base.PhaseSpans[name]
			ns, ok := now.PhaseSpans[name]
			if !ok {
				regs = append(regs, Regression{Key: key, Field: "missing", Baseline: bs})
				continue
			}
			if bs > 0 && ns > bs*(1+tol) {
				regs = append(regs, Regression{
					Key: key, Field: "phase:" + name,
					Baseline: bs, Current: ns,
					Change: ns/bs - 1,
				})
			}
		}
	}
	return regs
}

// CurveFile is the standalone curves artifact cmd/bench writes and the
// gate reads back as its baseline.
type CurveFile struct {
	Machine string       `json:"machine"`
	Curves  []CurvePoint `json:"scaling_curves"`
}

// LoadCurves reads curve rows from a JSON file: either a standalone
// CurveFile or any document with a top-level "scaling_curves" array
// (BENCH_sim.json qualifies), so the gate can baseline against whichever
// artifact is committed.
func LoadCurves(path string) ([]CurvePoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f CurveFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("analytics: parsing %s: %w", path, err)
	}
	if len(f.Curves) == 0 {
		return nil, fmt.Errorf("analytics: %s holds no scaling_curves rows", path)
	}
	return f.Curves, nil
}

// WriteCurves writes the standalone curves artifact.
func WriteCurves(path, machineName string, curves []CurvePoint) error {
	buf, err := json.MarshalIndent(CurveFile{Machine: machineName, Curves: curves}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
