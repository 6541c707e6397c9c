package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"perfscale/internal/sim"
)

// ReproducerVersion is the artifact schema version; Load rejects artifacts
// from a different schema instead of misinterpreting them.
const ReproducerVersion = 1

// Reproducer is a self-contained minimal reproducer: everything needed to
// re-run one invariant violation bitwise — the target, the discovered and
// minimized fault plans, the judgment bands, and the exact outcomes the
// replay must reproduce. It references no files and no wall-clock state,
// so an artifact checked in today replays identically on any machine.
type Reproducer struct {
	Version int    `json:"version"`
	Target  Target `json:"target"`

	// Cell, Kind and Class locate the finding in the campaign that made it.
	Cell  int    `json:"cell"`
	Kind  string `json:"kind"`
	Class Class  `json:"class"`

	// Invariant and Detail name the violated property as first judged.
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`

	// TimeBand and EnergyBand are the overhead ceilings the campaign judged
	// with; Verify re-judges with the same bands.
	TimeBand   float64 `json:"time_band"`
	EnergyBand float64 `json:"energy_band"`

	// Discovered is the campaign cell's full plan; Minimized is the
	// delta-debugged reproducer. Coords are their coordWeight footprints —
	// minimization must strictly reduce them.
	Discovered       *sim.FaultPlan `json:"discovered"`
	DiscoveredCoords int            `json:"discovered_coords"`
	Minimized        *sim.FaultPlan `json:"minimized"`
	MinimizedCoords  int            `json:"minimized_coords"`
	// ShrinkRuns counts the target runs minimization spent.
	ShrinkRuns int `json:"shrink_runs"`

	// Clean is the fault-free baseline outcome; Expected is the outcome of
	// the minimized plan. Verify requires both bitwise.
	Clean    Outcome `json:"clean"`
	Expected Outcome `json:"expected"`
}

// Encode renders the artifact as indented JSON with a trailing newline.
func (r *Reproducer) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Load parses and sanity-checks an artifact.
func Load(data []byte) (*Reproducer, error) {
	var r Reproducer
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("campaign: bad reproducer artifact: %w", err)
	}
	if r.Version != ReproducerVersion {
		return nil, fmt.Errorf("campaign: reproducer schema version %d, want %d", r.Version, ReproducerVersion)
	}
	if r.Minimized == nil {
		return nil, fmt.Errorf("campaign: reproducer has no minimized plan")
	}
	if err := r.Target.Validate(); err != nil {
		return nil, err
	}
	if err := r.Minimized.Validate(r.Target.Ranks()); err != nil {
		return nil, err
	}
	return &r, nil
}

// LoadFile reads an artifact from disk.
func LoadFile(path string) (*Reproducer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(data)
}

// Reshrink re-minimizes the artifact's discovered plan from scratch with a
// fresh run budget — useful when the original campaign's ShrinkBudget ran
// dry before the plan got small. The artifact's Minimized, MinimizedCoords,
// ShrinkRuns and Expected fields are rewritten in place; the number of
// target runs spent is returned.
func (r *Reproducer) Reshrink(ctx context.Context, budget int) (int, error) {
	sp, clean, err := r.Target.Enumerate(ctx)
	if err != nil {
		return 0, err
	}
	if diff, same := clean.identical(&r.Clean); !same {
		return 0, fmt.Errorf("campaign: clean baseline deviates from the artifact's: %s", diff)
	}
	sh := &shrinker{ctx: ctx, t: r.Target, class: r.Class, clean: clean,
		b: bands{
			timeOverhead:   r.TimeBand,
			energyOverhead: r.EnergyBand,
			floor:          boundsFloor(r.Target, clean.PeakMemWords),
		},
		inv: r.Invariant, sp: sp, budget: budget}
	minimized := sh.shrink(r.Discovered)
	if ctx.Err() != nil {
		return sh.runs, ctx.Err()
	}
	expected, err := r.Target.Run(ctx, minimized)
	if err != nil {
		return sh.runs, err
	}
	r.Minimized = minimized
	r.MinimizedCoords = coordWeight(minimized, r.Target.Ranks())
	r.ShrinkRuns = sh.runs
	r.Expected = *expected
	return sh.runs + 1, nil
}

// Verify replays the artifact and fails on the first deviation: the clean
// baseline must match Clean bitwise, the minimized plan must reproduce
// Expected bitwise, and re-judging the outcome with the stored bands must
// re-derive the recorded invariant violation.
func (r *Reproducer) Verify(ctx context.Context) error {
	if coords := coordWeight(r.Minimized, r.Target.Ranks()); coords != r.MinimizedCoords {
		return fmt.Errorf("campaign: artifact claims %d minimized coords but the plan weighs %d", r.MinimizedCoords, coords)
	}
	clean, err := r.Target.Run(ctx, nil)
	if err != nil {
		return err
	}
	if diff, same := clean.identical(&r.Clean); !same {
		return fmt.Errorf("campaign: clean baseline deviates: %s", diff)
	}
	got, err := r.Target.Run(ctx, r.Minimized)
	if err != nil {
		return err
	}
	if got.ErrorKind == "cancelled" {
		return ctx.Err()
	}
	if r.Invariant == "replay" {
		// A replay finding is nondeterminism itself: the only meaningful
		// check is that two runs of the plan still disagree.
		again, err := r.Target.Run(ctx, r.Minimized)
		if err != nil {
			return err
		}
		if replayViolation(got, again) == nil {
			return fmt.Errorf("campaign: the replay divergence no longer shows")
		}
		return nil
	}
	if diff, same := got.identical(&r.Expected); !same {
		return fmt.Errorf("campaign: replay deviates from expected outcome: %s", diff)
	}
	b := bands{
		timeOverhead:   r.TimeBand,
		energyOverhead: r.EnergyBand,
		floor:          boundsFloor(r.Target, clean.PeakMemWords),
	}
	if !hasInvariant(checkOutcome(r.Class, clean, got, b), r.Invariant) {
		return fmt.Errorf("campaign: replay no longer violates %q", r.Invariant)
	}
	return nil
}
