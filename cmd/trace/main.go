// Command trace runs one (algorithm, p, M, fault-plan) point with the full
// observability stack and exports what the aggregate counters cannot show:
// a Chrome/Perfetto trace (one track per rank, phase slices, fault/crash
// instants, cumulative W/S/E counter tracks), an optional JSONL event
// stream, CSV energy/communication matrices, and a text summary splitting
// Eq. 2's energy into its γe/βe/αe/δe·M·T/εe terms per rank and along the
// critical path. Open the trace at https://ui.perfetto.dev or
// chrome://tracing.
//
// Usage:
//
//	trace -alg matmul -q 32 -c 1 -n 128 -out trace.json
//	trace -alg matmul -q 16 -faults -selfcheck -events events.jsonl
//	trace -alg nbody -p 64 -c 2 -n 256 -energy energy.csv -comm comm.csv
//
// With -faults the run is driven through a canned, always-completing fault
// plan — a respawned mid-run crash plus a degraded-bandwidth window —
// calibrated from a fault-free probe run (drops are deliberately absent:
// raw-channel programs cannot recover a silently lost message). -selfcheck
// reruns the same point untraced and verifies the traced run's energy
// attribution is bit-identical, and the emitted JSON parses with monotone
// counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"

	lupkg "perfscale/internal/lu"
)

func main() {
	var (
		alg      = flag.String("alg", "matmul", "algorithm: matmul, summa, caps, lu, nbody")
		mach     = flag.String("machine", "simdefault", "machine preset name or .json parameter file")
		n        = flag.Int("n", 128, "problem size (matrix dimension or body count)")
		q        = flag.Int("q", 16, "grid size (matmul, lu); p = q²·c")
		c        = flag.Int("c", 1, "replication factor (matmul, lu, nbody)")
		p        = flag.Int("p", 64, "ranks (nbody)")
		k        = flag.Int("k", 1, "BFS recursion depth (caps); p = 7^k")
		out      = flag.String("out", "trace.json", "Chrome/Perfetto trace output path")
		events   = flag.String("events", "", "optional JSONL event-stream output path")
		energy   = flag.String("energy", "", "optional per-rank energy split CSV path")
		comm     = flag.String("comm", "", "optional communication-matrix CSV path")
		faults   = flag.Bool("faults", false, "inject the canned completing fault plan")
		seed     = flag.Uint64("seed", 42, "fault-plan seed")
		tail     = flag.Int("tail", 256, "ring-buffer window printed when the run fails")
		cpuprof  = flag.String("pprof", "", "write a host CPU profile of the traced run")
		hostStat = flag.Bool("runtime-metrics", false, "report host runtime/metrics after the run")
		check    = flag.Bool("selfcheck", false, "verify bit-identical energy vs an untraced rerun and validate the trace JSON")
	)
	flag.Parse()

	m, err := machine.Resolve(*mach)
	if err != nil {
		fatal(err)
	}
	cost := sim.Cost{
		GammaT: m.GammaT, BetaT: m.BetaT, AlphaT: m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords),
		ChanCap:     8,
	}

	run, ranks, err := buildRun(*alg, *n, *q, *c, *p, *k)
	if err != nil {
		fatal(err)
	}

	if *faults {
		// Calibrate the plan off a fault-free probe so the crash and the
		// degraded window land mid-run whatever the point's scale.
		probe, err := run(cost)
		if err != nil {
			fatal(fmt.Errorf("fault-plan probe run: %w", err))
		}
		cost.Faults = cannedPlan(*seed, ranks, probe.Time())
		fmt.Printf("probe T = %g s; injecting respawn crash on rank %d and degraded window\n",
			probe.Time(), ranks/2)
	}

	traced := cost
	traced.Trace = true
	col := obs.NewCollector(ranks)
	ring := obs.NewRingBuffer(*tail)
	traced.Observers = []sim.Observer{col, ring}
	var jw *obs.JSONLWriter
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		eventsFile = f
		jw = obs.NewJSONLWriter(f)
		traced.Observers = append(traced.Observers, jw)
	}

	var profFile *os.File
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		profFile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	res, err := run(traced)
	wall := time.Since(start)
	if profFile != nil {
		// Stop and close eagerly: the deferred-Close idiom would silently
		// drop both the flush implied by Stop and any Close error on every
		// os.Exit path, leaving a truncated profile with status 0.
		pprof.StopCPUProfile()
		if cerr := profFile.Close(); cerr != nil {
			fatal(fmt.Errorf("closing %s: %w", *cpuprof, cerr))
		}
	}
	if err != nil {
		// The bounded window is exactly for this moment: show the last
		// events each rank managed before the failure.
		fmt.Fprintf(os.Stderr, "run failed: %v\n\nlast %d events before failure:\n", err, *tail)
		for _, e := range ring.Snapshot() {
			fmt.Fprintf(os.Stderr, "  [%12.9f] rank %-4d %-8s peer=%-4d %s\n",
				e.Start, e.Rank, e.Kind, e.Peer, e.Name)
		}
		os.Exit(1)
	}
	if jw != nil {
		if err := jw.Flush(); err != nil {
			fatal(err)
		}
		if err := eventsFile.Close(); err != nil {
			fatal(fmt.Errorf("closing %s: %w", *events, err))
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := obs.WriteChromeTrace(f, col, obs.TraceOptions{Machine: &m, Result: res}); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	s := obs.NewSummary(m, res, col)
	if err := s.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("host wall time %.3fs; %d events observed; wrote %s (open at ui.perfetto.dev)\n",
		wall.Seconds(), ring.Total(), *out)

	if *energy != "" {
		if err := writeFile(*energy, s.WriteEnergyCSV); err != nil {
			fatal(err)
		}
	}
	if *comm != "" {
		if err := writeFile(*comm, s.WriteCommCSV); err != nil {
			fatal(err)
		}
	}

	if *check {
		if err := selfcheck(m, cost, run, s, *out); err != nil {
			fatal(fmt.Errorf("selfcheck FAILED: %w", err))
		}
		fmt.Println("selfcheck passed: energy attribution bit-identical to untraced run; trace JSON valid, counters monotone")
	}

	if *hostStat {
		reportHostMetrics()
	}
}

// buildRun resolves the algorithm flag into a closure running one point and
// the rank count that point uses.
func buildRun(alg string, n, q, c, p, k int) (func(sim.Cost) (*sim.Result, error), int, error) {
	switch alg {
	case "matmul", "summa":
		f := matmul.TwoPointFiveD
		if alg == "summa" {
			f = matmul.TwoPointFiveDSUMMA
		}
		a := matrix.Random(n, n, 1)
		b := matrix.Random(n, n, 2)
		return func(cost sim.Cost) (*sim.Result, error) {
			run, err := f(cost, q, c, a, b)
			if err != nil {
				return nil, err
			}
			return run.Sim, nil
		}, q * q * c, nil
	case "caps":
		ranks := 1
		for i := 0; i < k; i++ {
			ranks *= 7
		}
		a := matrix.Random(n, n, 1)
		b := matrix.Random(n, n, 2)
		return func(cost sim.Cost) (*sim.Result, error) {
			run, err := strassen.CAPS(cost, k, a, b, 0)
			if err != nil {
				return nil, err
			}
			return run.Sim, nil
		}, ranks, nil
	case "lu":
		a := matrix.RandomDiagDominant(n, 3)
		return func(cost sim.Cost) (*sim.Result, error) {
			run, err := lupkg.Stacked(cost, q, c, a)
			if err != nil {
				return nil, err
			}
			return run.Sim, nil
		}, q * q * c, nil
	case "nbody":
		bodies := nbody.RandomBodies(n, 3)
		return func(cost sim.Cost) (*sim.Result, error) {
			run, err := nbody.Replicated(cost, p, c, bodies)
			if err != nil {
				return nil, err
			}
			return run.Sim, nil
		}, p, nil
	}
	return nil, 0, fmt.Errorf("unknown algorithm %q (want matmul, summa, caps, lu or nbody)", alg)
}

// cannedPlan builds a fault plan that always completes: a respawned crash
// on a middle rank at 25% of the probe runtime plus an all-links degraded
// window over the middle third. No drops — raw-channel programs cannot
// recover a silently lost message.
func cannedPlan(seed uint64, ranks int, probeT float64) *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed:       seed,
		Crashes:    map[int]float64{ranks / 2: 0.25 * probeT},
		Respawn:    true,
		RebootTime: 0.05 * probeT,
		Degraded: []sim.DegradedLink{
			{Src: -1, Dst: -1, From: 0.3 * probeT, Until: 0.6 * probeT, AlphaFactor: 4, BetaFactor: 2},
		},
	}
}

// selfcheck reruns the point untraced under the identical cost and fault
// plan, and requires (1) bit-identical per-rank Stats, (2) the traced
// summary's total energy bit-identical to pricing the untraced run, and
// (3) the written trace JSON to parse with monotone counter tracks.
func selfcheck(m machine.Params, cost sim.Cost, run func(sim.Cost) (*sim.Result, error), s *obs.Summary, tracePath string) error {
	plain, err := run(cost)
	if err != nil {
		return fmt.Errorf("untraced rerun: %w", err)
	}
	for i := range plain.PerRank {
		if plain.PerRank[i] != s.Ranks[i] {
			return fmt.Errorf("rank %d stats differ traced vs untraced:\n  traced   %+v\n  untraced %+v",
				i, s.Ranks[i], plain.PerRank[i])
		}
	}
	want := core.PriceSim(m, plain)
	if s.Total != want {
		return fmt.Errorf("energy attribution differs from untraced pricing:\n  traced   %+v\n  untraced %+v",
			s.Total, want)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	stats, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return err
	}
	if stats.RankTracks != s.P {
		return fmt.Errorf("trace has %d rank tracks, run had %d ranks", stats.RankTracks, s.P)
	}
	if stats.PhaseSlices == 0 {
		return fmt.Errorf("trace carries no phase slices")
	}
	fmt.Printf("trace: %d slices (%d phase) on %d tracks, %d instants, %d counter samples\n",
		stats.Slices, stats.PhaseSlices, stats.RankTracks, stats.Instants, stats.CounterEvents)
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportHostMetrics prints a few host-process runtime/metrics so large
// traced runs can be correlated with their memory/GC footprint.
func reportHostMetrics() {
	names := []string{
		"/memory/classes/total:bytes",
		"/memory/classes/heap/objects:bytes",
		"/gc/cycles/total:gc-cycles",
		"/sched/goroutines:goroutines",
	}
	samples := make([]metrics.Sample, len(names))
	for i, name := range names {
		samples[i].Name = name
	}
	metrics.Read(samples)
	fmt.Println("host runtime/metrics:")
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			fmt.Printf("  %-36s %d\n", sm.Name, sm.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Printf("  %-36s %g\n", sm.Name, sm.Value.Float64())
		default:
			fmt.Printf("  %-36s (unsupported kind)\n", sm.Name)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
