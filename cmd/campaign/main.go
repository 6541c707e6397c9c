// Command campaign drives the chaos-campaign engine: it enumerates the
// fault space of a clean run, sweeps structured and seeded-random fault
// plans through the resilience stack, delta-debugs every invariant
// violation to a minimal reproducer, and checkpoints its progress so an
// interrupted campaign resumes exactly where it stopped.
//
// Usage:
//
//	campaign -sweep                          # new campaign, checkpoint to -state
//	campaign -sweep -budget 200              # stop (resumable) after 200 target runs
//	campaign -resume                         # continue the campaign in -state
//	campaign -replay artifacts/repro-000.json  # re-run a reproducer
//	campaign -shrink artifacts/repro-000.json  # re-minimize with a fresh budget
//
// Target knobs (-n, -q, -machine, -drop, -detector-rtos, -detector-misses,
// -max-attempts, -max-rto-factor, -seed) configure a -sweep;
// -resume takes its configuration from the checkpoint and ignores them.
//
// The exit status is 0 when the campaign completes or pauses at its
// budget (state saved either way), 1 on an IO failure or a reproducer
// that fails to replay, 2 on bad flags, 130 when interrupted by
// SIGINT/SIGTERM — in which case the checkpoint covers every completed
// cell and -resume continues with a bit-identical corpus.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"perfscale/internal/campaign"
)

func main() {
	var (
		sweep        = flag.Bool("sweep", false, "run a new campaign")
		resume       = flag.Bool("resume", false, "resume the campaign checkpointed in -state")
		replay       = flag.String("replay", "", "replay a reproducer artifact and exit")
		shrink       = flag.String("shrink", "", "re-minimize a reproducer artifact in place with a fresh -shrink-budget")
		statePath    = flag.String("state", "campaign.state.json", "campaign checkpoint file")
		artDir       = flag.String("artifacts", "campaign-artifacts", "directory reproducer artifacts are written to")
		budget       = flag.Int("budget", 0, "max target runs for -sweep/-resume, checked between cells (0 = unlimited)")
		shrinkBudget = flag.Int("shrink-budget", 0, "max target runs per minimization (0 = default)")

		n            = flag.Int("n", 32, "matrix dimension of the target")
		q            = flag.Int("q", 4, "grid side of the target (p = q*q ranks)")
		mach         = flag.String("machine", "simdefault", "machine preset pricing the target")
		seed         = flag.Uint64("seed", 1, "campaign seed (cells, plan seeds, crash victims)")
		drop         = flag.Float64("drop", 0.25, "background and per-link drop probability")
		randomPlans  = flag.Int("random-plans", 6, "number of seeded compound cells")
		maxAttempts  = flag.Int("max-attempts", 0, "ARQ retransmission budget (0 = endpoint default)")
		maxRTOFactor = flag.Float64("max-rto-factor", 0, "ARQ backoff ceiling in RTOs (0 = endpoint default)")
		detRTOs      = flag.Float64("detector-rtos", 0, "failure-detector interval in RTOs (0 = endpoint default)")
		detMisses    = flag.Int("detector-misses", 0, "tolerated silent detector windows (0 = endpoint default)")
	)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*sweep, *resume, *replay != "", *shrink != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "campaign: pick exactly one of -sweep, -resume, -replay, -shrink")
		os.Exit(2)
	}

	// A first SIGINT/SIGTERM cancels the campaign at the next deterministic
	// checkpoint; a second one falls back to the default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replay != "" {
		r, err := campaign.LoadFile(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		fmt.Printf("replaying %s: %s cell %d, %s violates %s, %d → %d fault coordinates\n",
			*replay, r.Kind, r.Cell, r.Class, r.Invariant, r.DiscoveredCoords, r.MinimizedCoords)
		if err := r.Verify(ctx); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "campaign: interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "campaign: DOES NOT REPRODUCE:", err)
			os.Exit(1)
		}
		fmt.Println("reproduces bitwise")
		return
	}

	if *shrink != "" {
		r, err := campaign.LoadFile(*shrink)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		before := r.MinimizedCoords
		runs, err := r.Reshrink(ctx, *shrinkBudget)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "campaign: interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		data, err := r.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*shrink, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "campaign:", err)
			os.Exit(1)
		}
		fmt.Printf("re-minimized %s: %d → %d fault coordinates in %d runs\n", *shrink, before, r.MinimizedCoords, runs)
		return
	}

	var eng *campaign.Engine
	var err error
	if *resume {
		data, rerr := os.ReadFile(*statePath)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "campaign:", rerr)
			os.Exit(1)
		}
		var st campaign.State
		if jerr := json.Unmarshal(data, &st); jerr != nil {
			fmt.Fprintf(os.Stderr, "campaign: bad checkpoint %s: %v\n", *statePath, jerr)
			os.Exit(1)
		}
		eng, err = campaign.Resume(&st)
	} else {
		cfg := campaign.Config{
			Target: campaign.Target{
				N: *n, Q: *q, Machine: *mach,
				MaxAttempts: *maxAttempts, MaxRTOFactor: *maxRTOFactor,
				DetectorRTOs: *detRTOs, DetectorMisses: *detMisses,
			},
			Seed: *seed, RandomPlans: *randomPlans,
			DropProb: *drop, ShrinkBudget: *shrinkBudget,
		}
		eng, err = campaign.New(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*artDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}

	st, err := eng.Run(campaign.RunOpts{
		Context: ctx,
		Budget:  *budget,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
		Save: func(st *campaign.State) error { return save(st, *statePath, *artDir) },
	})
	switch {
	case err == nil:
		fmt.Printf("campaign done: %d/%d cells, %d runs, %d findings, state in %s\n",
			st.NextCell, len(st.Cells), st.RunsUsed, len(st.Findings), *statePath)
	case errors.Is(err, campaign.ErrBudget):
		fmt.Printf("campaign paused at budget: %d/%d cells, %d runs, %d findings; -resume continues\n",
			st.NextCell, len(st.Cells), st.RunsUsed, len(st.Findings))
	case errors.Is(err, campaign.ErrInterrupted):
		fmt.Fprintf(os.Stderr, "campaign: interrupted at cell %d/%d; state saved to %s, -resume continues\n",
			st.NextCell, len(st.Cells), *statePath)
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

// save checkpoints the state and every minimized reproducer. The state file
// is written via a same-directory rename so a kill mid-write never leaves a
// torn checkpoint behind.
func save(st *campaign.State, statePath, artDir string) error {
	for _, f := range st.Findings {
		if f.Repro == nil {
			continue
		}
		data, err := f.Repro.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(artDir, f.Artifact), data, 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := statePath + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, statePath)
}
