package campaign

import (
	"context"
	"errors"
	"fmt"
)

// Config parameterizes a campaign. It is fully serializable and, together
// with the enumerated Space, determines the entire cell list — which is
// what makes campaigns resumable: a checkpointed campaign rebuilt from its
// Config and Space walks the identical corpus.
type Config struct {
	Target Target `json:"target"`
	// Seed keys every randomized choice: cell fault-plan seeds, compound
	// plan composition, crash victim selection.
	Seed uint64 `json:"seed"`
	// RandomPlans is the number of seeded compound cells.
	RandomPlans int `json:"random_plans"`
	// DropProb is the fractional loss rate of the background and per-link
	// drop cells.
	DropProb float64 `json:"drop_prob"`
	// MaxCrashCells, MaxLinkCells and MaxWindowCells cap the structured
	// sweeps (0 = unlimited); large grids are downsampled evenly.
	MaxCrashCells  int `json:"max_crash_cells"`
	MaxLinkCells   int `json:"max_link_cells"`
	MaxWindowCells int `json:"max_window_cells"`
	// TimeOverhead and EnergyOverhead are the maskable-class ceilings on
	// faulty/clean ratios. Deliberately generous — stock ARQ masks the
	// default 25% background loss at a measured ~105× time overhead on the
	// small grid — they catch runaway retransmission storms, not the
	// (large but bounded) cost of honest recovery.
	TimeOverhead   float64 `json:"time_overhead"`
	EnergyOverhead float64 `json:"energy_overhead"`
	// MaxFindings caps how many findings are shrunk to artifacts; later
	// findings are still recorded, unminimized.
	MaxFindings int `json:"max_findings"`
	// ShrinkBudget caps the target runs one minimization may spend.
	ShrinkBudget int `json:"shrink_budget"`
}

// withDefaults fills zero fields with the small-grid defaults.
func (c Config) withDefaults() Config {
	c.Target = c.Target.withDefaults()
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RandomPlans == 0 {
		c.RandomPlans = 6
	}
	if c.DropProb == 0 {
		c.DropProb = 0.25
	}
	if c.MaxCrashCells == 0 {
		c.MaxCrashCells = 8
	}
	if c.MaxLinkCells == 0 {
		c.MaxLinkCells = 12
	}
	if c.MaxWindowCells == 0 {
		c.MaxWindowCells = 4
	}
	if c.TimeOverhead == 0 {
		c.TimeOverhead = 200
	}
	if c.EnergyOverhead == 0 {
		c.EnergyOverhead = 200
	}
	if c.MaxFindings == 0 {
		c.MaxFindings = 4
	}
	if c.ShrinkBudget == 0 {
		c.ShrinkBudget = 250
	}
	return c
}

// Validate rejects configs the engine cannot run.
func (c Config) Validate() error {
	if err := c.Target.Validate(); err != nil {
		return err
	}
	if c.DropProb <= 0 || c.DropProb > 1 {
		return fmt.Errorf("campaign: drop probability %g outside (0,1]", c.DropProb)
	}
	if c.TimeOverhead < 1 || c.EnergyOverhead < 1 {
		return fmt.Errorf("campaign: overhead bands must be ≥ 1, got T×%g E×%g", c.TimeOverhead, c.EnergyOverhead)
	}
	if c.RandomPlans < 0 || c.MaxFindings < 0 || c.ShrinkBudget < 0 {
		return fmt.Errorf("campaign: negative knob in config")
	}
	return nil
}

// StateVersion is the checkpoint schema version.
const StateVersion = 1

// State is the complete checkpoint of a campaign: save it after any cell
// and a Resume'd engine continues exactly where it stopped — same cells,
// same seeds, same findings, same artifacts. It holds no wall-clock state.
type State struct {
	Version int    `json:"version"`
	Config  Config `json:"config"`
	// Space and Clean are the enumeration products: the fault coordinates
	// and the fault-free baseline every invariant judges against.
	Space *Space  `json:"space,omitempty"`
	Clean Outcome `json:"clean,omitempty"`
	// Cells is the corpus, a pure function of (Config, Space); it is
	// checkpointed so a resumed campaign need not re-enumerate.
	Cells []Cell `json:"cells,omitempty"`
	// NextCell indexes the first cell not yet fully processed.
	NextCell int `json:"next_cell"`
	// RunsUsed counts completed (never cancelled) target runs, including
	// enumeration, replay checks and shrinking.
	RunsUsed int `json:"runs_used"`
	// Findings lists every invariant violation in discovery order.
	Findings []Finding `json:"findings,omitempty"`
	// Completed is set once every cell has been processed.
	Completed bool `json:"completed"`
}

// Finding is one invariant violation. The first Config.MaxFindings carry a
// minimized reproducer and its deterministic artifact filename.
type Finding struct {
	Cell      int    `json:"cell"`
	Kind      string `json:"kind"`
	Class     Class  `json:"class"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	// Artifact is the reproducer's filename within the campaign's artifact
	// directory ("repro-000.json", numbered by finding order).
	Artifact string      `json:"artifact,omitempty"`
	Repro    *Reproducer `json:"repro,omitempty"`
}

// ErrInterrupted reports a campaign stopped by context cancellation with
// its state checkpointed; Resume continues it.
var ErrInterrupted = errors.New("campaign: interrupted, state saved")

// ErrBudget reports a campaign paused by its run budget with its state
// checkpointed; Resume with a fresh budget continues it.
var ErrBudget = errors.New("campaign: run budget exhausted, state saved")

// RunOpts controls one Run call. All fields are optional except Context
// handling: a nil Context means background.
type RunOpts struct {
	Context context.Context
	// Budget caps st.RunsUsed; it is checked between cells only, so a
	// budgeted campaign always checkpoints on a cell boundary.
	Budget int
	// Log receives one-line progress messages.
	Log func(format string, args ...any)
	// Save checkpoints the state; it is called after enumeration, after
	// every completed cell, and on interruption. A Save error aborts the
	// campaign.
	Save func(*State) error
}

// Engine drives one campaign. It performs no file IO — checkpointing and
// artifact writing are the caller's Save callback — so the engine itself
// is deterministic and testable in memory.
type Engine struct {
	st *State
}

// New builds an engine for a fresh campaign.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{st: &State{Version: StateVersion, Config: cfg}}, nil
}

// Resume builds an engine continuing a checkpointed campaign. It refuses a
// state whose cells carry a plan the target cannot run, as Load refuses such
// a reproducer.
func Resume(st *State) (*Engine, error) {
	if st.Version != StateVersion {
		return nil, fmt.Errorf("campaign: state schema version %d, want %d", st.Version, StateVersion)
	}
	if err := st.Config.Validate(); err != nil {
		return nil, err
	}
	if st.NextCell < 0 || st.NextCell > len(st.Cells) {
		return nil, fmt.Errorf("campaign: state next_cell %d outside [0,%d]", st.NextCell, len(st.Cells))
	}
	for i, cell := range st.Cells {
		if cell.Plan == nil {
			return nil, fmt.Errorf("campaign: state cell %d has no fault plan", i)
		}
		if err := cell.Plan.Validate(st.Config.Target.Ranks()); err != nil {
			return nil, fmt.Errorf("campaign: state cell %d: %w", i, err)
		}
	}
	return &Engine{st: st}, nil
}

// Run executes the campaign to completion, budget exhaustion, or
// cancellation. It returns the final state alongside nil (completed),
// ErrBudget, ErrInterrupted, or a harness error.
func (e *Engine) Run(opts RunOpts) (*State, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	save := func() error {
		if opts.Save == nil {
			return nil
		}
		return opts.Save(e.st)
	}
	st, cfg := e.st, e.st.Config

	if st.Space == nil {
		logf("enumerating fault space: clean run of %s n=%d q=%d", cfg.Target.Workload, cfg.Target.N, cfg.Target.Q)
		sp, clean, err := cfg.Target.Enumerate(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return st, ErrInterrupted
			}
			return st, err
		}
		st.Space, st.Clean = sp, *clean
		st.RunsUsed++
		st.Cells = BuildCells(cfg, sp)
		logf("space: %d phases, %d links, %d windows → %d cells", len(sp.Phases), len(sp.Links), len(sp.Windows), len(st.Cells))
		if err := save(); err != nil {
			return st, err
		}
	}

	b := bands{
		timeOverhead:   cfg.TimeOverhead,
		energyOverhead: cfg.EnergyOverhead,
		floor:          boundsFloor(cfg.Target, st.Clean.PeakMemWords),
	}

	for st.NextCell < len(st.Cells) {
		if ctx.Err() != nil {
			if err := save(); err != nil {
				return st, err
			}
			return st, ErrInterrupted
		}
		if opts.Budget > 0 && st.RunsUsed >= opts.Budget {
			if err := save(); err != nil {
				return st, err
			}
			return st, ErrBudget
		}
		cell := st.Cells[st.NextCell]
		// A cell's runs commit to RunsUsed only when the cell completes, so
		// an interruption mid-cell leaves the checkpoint exactly as if the
		// cell had never started and resume replays it identically.
		used := 0
		out, err := cfg.Target.Run(ctx, cell.Plan)
		if err != nil {
			return st, err
		}
		if out.ErrorKind == "cancelled" {
			if err := save(); err != nil {
				return st, err
			}
			return st, ErrInterrupted
		}
		used++
		again, err := cfg.Target.Run(ctx, cell.Plan)
		if err != nil {
			return st, err
		}
		if again.ErrorKind == "cancelled" {
			if err := save(); err != nil {
				return st, err
			}
			return st, ErrInterrupted
		}
		used++
		vios := checkOutcome(cell.Class, &st.Clean, out, b)
		if rv := replayViolation(out, again); rv != nil {
			vios = append(vios, *rv)
		}
		if len(vios) == 0 {
			logf("cell %d/%d %s ok (%s)", cell.Seq+1, len(st.Cells), cell.Kind, outcomeWord(out))
			st.RunsUsed += used
			st.NextCell++
			if err := save(); err != nil {
				return st, err
			}
			continue
		}
		v := vios[0]
		logf("cell %d/%d %s VIOLATES %s: %s", cell.Seq+1, len(st.Cells), cell.Kind, v.Invariant, v.Detail)
		f := Finding{Cell: cell.Seq, Kind: cell.Kind, Class: cell.Class, Invariant: v.Invariant, Detail: v.Detail}
		if len(st.Findings) < cfg.MaxFindings {
			sh := &shrinker{ctx: ctx, t: cfg.Target, class: cell.Class,
				clean: &st.Clean, b: b, inv: v.Invariant, sp: st.Space, budget: cfg.ShrinkBudget}
			minimized := sh.shrink(cell.Plan)
			used += sh.runs
			if ctx.Err() != nil {
				if err := save(); err != nil {
					return st, err
				}
				return st, ErrInterrupted
			}
			expected, err := cfg.Target.Run(ctx, minimized)
			if err != nil {
				return st, err
			}
			if expected.ErrorKind == "cancelled" {
				if err := save(); err != nil {
					return st, err
				}
				return st, ErrInterrupted
			}
			used++
			ranks := cfg.Target.Ranks()
			f.Artifact = fmt.Sprintf("repro-%03d.json", len(st.Findings))
			f.Repro = &Reproducer{
				Version: ReproducerVersion, Target: cfg.Target,
				Cell: cell.Seq, Kind: cell.Kind, Class: cell.Class,
				Invariant: v.Invariant, Detail: v.Detail,
				TimeBand: cfg.TimeOverhead, EnergyBand: cfg.EnergyOverhead,
				Discovered: cell.Plan, DiscoveredCoords: coordWeight(cell.Plan, ranks),
				Minimized: minimized, MinimizedCoords: coordWeight(minimized, ranks),
				ShrinkRuns: sh.runs,
				Clean:      st.Clean, Expected: *expected,
			}
			logf("  shrunk %d → %d fault coordinates in %d runs → %s",
				f.Repro.DiscoveredCoords, f.Repro.MinimizedCoords, sh.runs, f.Artifact)
		} else {
			logf("  finding cap reached (%d); recorded unminimized", cfg.MaxFindings)
		}
		st.Findings = append(st.Findings, f)
		st.RunsUsed += used
		st.NextCell++
		if err := save(); err != nil {
			return st, err
		}
	}
	st.Completed = true
	if err := save(); err != nil {
		return st, err
	}
	logf("campaign complete: %d cells, %d runs, %d findings", len(st.Cells), st.RunsUsed, len(st.Findings))
	return st, nil
}

// outcomeWord renders a one-word outcome summary for progress lines.
func outcomeWord(o *Outcome) string {
	if o.Completed {
		return "completed"
	}
	return o.ErrorKind
}
