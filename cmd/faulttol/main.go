// Command faulttol prices resilience with the paper's energy model
// (experiment E23): it runs the fault-tolerant 2.5D matmul and the
// buddy-checkpointed stencil under deterministic injected faults — rank
// crashes, corrupted links — and reports what the recovery work costs in
// simulated time and in Eq. 2 joules, as a function of the redundancy knob
// (the replication factor c, or the checkpoint interval).
//
//	-abft     ABFT 2.5D matmul: fault scenarios x replication factor c
//	-ckpt     checkpoint/rollback stencil: crash recovery x interval
//	-drops    self-healing SUMMA over ARQ: silent drops masked by
//	          virtual-time retransmission, bit-identical output
//	-detector heartbeat failure detection: observed exits, wedged peers,
//	          long compute with and without heartbeats
//	-recover  energy-priced recovery controller: the per-context strategy
//	          table and the argmin choice
//
// With no flags it runs everything.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/report"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

func main() {
	var (
		abft    = flag.Bool("abft", false, "E23a: ABFT 2.5D matmul under crashes and corruption")
		ckpt    = flag.Bool("ckpt", false, "E23b: checkpoint/rollback under crashes")
		drops   = flag.Bool("drops", false, "E23c: SUMMA over ARQ under silent drops")
		det     = flag.Bool("detector", false, "E23d: heartbeat failure detection scenarios")
		rec     = flag.Bool("recover", false, "E23e: energy-priced recovery controller")
		csv     = flag.Bool("csv", false, "emit CSV instead of text tables")
		mach    = flag.String("machine", "simdefault", "machine preset name or .json parameter file")
		n       = flag.Int("n", 96, "matrix dimension for the ABFT and ARQ sweeps")
		outPath = flag.String("o", "", "write the report to this file (default stdout)")
	)
	flag.Parse()
	all := !*abft && !*ckpt && !*drops && !*det && !*rec

	m, err := machine.Resolve(*mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	w, closeOut, err := report.OpenOutput(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faulttol:", err)
		os.Exit(1)
	}
	emit := func(t *report.Table) {
		if *csv {
			w.Printf("%s", t.CSV())
		} else {
			w.Println(t.Render())
		}
	}

	if all || *abft {
		runABFT(emit, m, *n)
	}
	if all || *ckpt {
		runCheckpoint(emit, m)
	}
	if all || *drops {
		runDrops(emit, m, *n)
	}
	if all || *det {
		runDetector(emit, m)
	}
	if all || *rec {
		runRecover(emit, m)
	}
	code := 0
	if err := w.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "faulttol: writing report:", err)
		code = 1
	}
	if err := closeOut(); err != nil {
		fmt.Fprintln(os.Stderr, "faulttol: closing output:", err)
		code = 1
	}
	if code != 0 {
		os.Exit(code)
	}
}

// simCost builds the simulator price list from a machine's time parameters.
func simCost(m machine.Params) sim.Cost {
	return sim.Cost{
		GammaT:      m.GammaT,
		BetaT:       m.BetaT,
		AlphaT:      m.AlphaT,
		MaxMsgWords: int(m.MaxMsgWords),
	}
}

// runABFT sweeps fault scenarios against the replication factor: the same
// c that buys 2.5D its communication-avoiding perfect scaling is the
// redundancy the ABFT recovery draws on, so c = 1 prices what having no
// spare copy costs (an unrecoverable run) and c > 1 prices recovery as a
// small energy surcharge over the fault-free run.
func runABFT(emit func(*report.Table), m machine.Params, n int) {
	const q = 4
	t := report.NewTable(
		fmt.Sprintf("E23a: energy-priced ABFT 2.5D matmul, n=%d, q=%d (faults vs replication factor c)", n, q),
		"c", "p", "scenario", "T_sim (s)", "E (J)", "E/E_base", "max|dC|", "status")

	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	want := matmul.Serial(a, b)

	for _, c := range []int{1, 2, 4} {
		p := q * q * c
		base, err := resilience.ABFT25D(simCost(m), q, c, a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		baseT := base.Sim.Time()
		baseE := core.PriceSim(m, base.Sim).Total()

		scenarios := []struct {
			name  string
			plan  *sim.FaultPlan
			valid bool
		}{
			{"fault-free", nil, true},
			{"1 crash", &sim.FaultPlan{
				Seed:       5,
				Crashes:    map[int]float64{q + 1: 0.4 * baseT},
				Respawn:    true,
				RebootTime: 0.05 * baseT,
			}, true},
			{"2 crashes, distinct fibers", &sim.FaultPlan{
				Seed: 6,
				Crashes: map[int]float64{
					q + 1:               0.3 * baseT,
					(c-1)*q*q + 2*q + 3: 0.6 * baseT,
				},
				Respawn:    true,
				RebootTime: 0.05 * baseT,
			}, c > 1},
			{"corrupt replication link", &sim.FaultPlan{
				Seed:  8,
				Links: []sim.LinkFault{{Src: 0, Dst: q * q, CorruptProb: 0.5}},
			}, c > 1},
		}
		for _, sc := range scenarios {
			if !sc.valid {
				t.AddRow(c, p, sc.name, "-", "-", "-", "-", "n/a (needs c > 1)")
				continue
			}
			cost := simCost(m)
			cost.Faults = sc.plan
			res, err := resilience.ABFT25D(cost, q, c, a, b)
			if err != nil {
				// sim.Run aggregates one error per rank; the first line
				// carries the diagnosis.
				msg, _, _ := strings.Cut(err.Error(), "\n")
				t.AddRow(c, p, sc.name, "-", "-", "-", "-", msg)
				continue
			}
			e := core.PriceSim(m, res.Sim).Total()
			t.AddRow(c, p, sc.name,
				fmt.Sprintf("%.4g", res.Sim.Time()),
				fmt.Sprintf("%.4g", e),
				fmt.Sprintf("%.3f", e/baseE),
				fmt.Sprintf("%.2g", res.C.MaxAbsDiff(want)),
				statusFor(sc.plan))
		}
	}
	emit(t)
}

// runCheckpoint prices the checkpoint-interval tradeoff: frequent
// checkpoints spend energy on snapshot traffic every interval, rare ones
// spend it on longer rollback re-execution after a crash.
func runCheckpoint(emit func(*report.Table), m machine.Params) {
	const p, iters = 8, 12
	t := report.NewTable(
		fmt.Sprintf("E23b: energy-priced checkpoint/rollback stencil, p=%d, iters=%d (crash at 55%% of runtime)", p, iters),
		"every", "T_base (s)", "E_base (J)", "T_crash (s)", "E_crash (J)", "E_crash/E_base", "status")

	init := func(r *sim.Rank) []float64 {
		state := make([]float64, 64)
		for i := range state {
			state[i] = float64(r.ID()*len(state) + i)
		}
		return state
	}
	step := func(r *sim.Rank, w *sim.Comm, iter int, state []float64) []float64 {
		r.Compute(1e6)
		left := w.Shift(state, 1)
		right := w.Shift(state, -1)
		out := make([]float64, len(state))
		for i := range out {
			out[i] = 0.5*state[i] + 0.25*left[i] + 0.25*right[i]
		}
		return out
	}

	for _, every := range []int{1, 2, 4, 6} {
		base, err := resilience.RunCheckpointed(simCost(m), p, iters, every, init, step)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		baseE := core.PriceSim(m, base.Sim).Total()

		cost := simCost(m)
		cost.Faults = &sim.FaultPlan{
			Seed:       7,
			Crashes:    map[int]float64{2: 0.55 * base.Sim.Time()},
			Respawn:    true,
			RebootTime: 0.05 * base.Sim.Time(),
		}
		res, err := resilience.RunCheckpointed(cost, p, iters, every, init, step)
		if err != nil {
			t.AddRow(every, "-", "-", "-", "-", "-", err.Error())
			continue
		}
		status := "recovered"
		for id := range base.States {
			for i, v := range base.States[id] {
				if res.States[id][i] != v {
					status = "STATE MISMATCH"
				}
			}
		}
		e := core.PriceSim(m, res.Sim).Total()
		t.AddRow(every,
			fmt.Sprintf("%.4g", base.Sim.Time()),
			fmt.Sprintf("%.4g", baseE),
			fmt.Sprintf("%.4g", res.Sim.Time()),
			fmt.Sprintf("%.4g", e),
			fmt.Sprintf("%.3f", e/baseE),
			status)
	}
	emit(t)
}

// statusFor labels a completed run: "ok" for the fault-free baseline,
// "recovered" when a fault plan was actually in force.
func statusFor(plan *sim.FaultPlan) string {
	if plan == nil {
		return "ok"
	}
	return "recovered"
}

// runDrops sweeps silent-drop rates against the ARQ endpoints: faults that
// leave no evidence (no damaged frame, no duplicate — the class Reliable
// cannot mask) are recovered by virtual-time retransmission, the product
// stays bit-identical to the fault-free run, and the table prices what the
// recovery waiting costs in time and Eq. 2 joules.
func runDrops(emit func(*report.Table), m machine.Params, n int) {
	const q = 4
	t := report.NewTable(
		fmt.Sprintf("E23c: self-healing SUMMA over ARQ, n=%d, q=%d, p=%d (silent drops vs retransmission)", n, q, q*q),
		"scenario", "T_sim (s)", "E (J)", "T/T_base", "E/E_base", "retx", "dups", "optimistic", "max|dC|", "status")

	a := matrix.Random(n, n, 11)
	b := matrix.Random(n, n, 12)
	nb := n / q
	arqCfg := resilience.ARQDefaults(simCost(m), nb*nb)

	base, err := resilience.SUMMAARQ(simCost(m), q, arqCfg, a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	baseT := base.Sim.Time()
	baseE := core.PriceSim(m, base.Sim).Total()

	scenarios := []struct {
		name string
		plan *sim.FaultPlan
	}{
		{"fault-free", nil},
		{"1% silent drops", &sim.FaultPlan{Seed: 13,
			Links: []sim.LinkFault{{Src: -1, Dst: -1, DropProb: 0.01}}}},
		{"5% silent drops", &sim.FaultPlan{Seed: 14,
			Links: []sim.LinkFault{{Src: -1, Dst: -1, DropProb: 0.05}}}},
		{"2% drops + 2% dup + 2% corrupt", &sim.FaultPlan{Seed: 15,
			Links: []sim.LinkFault{{Src: -1, Dst: -1, DropProb: 0.02, DupProb: 0.02, CorruptProb: 0.02}}}},
	}
	for _, sc := range scenarios {
		cost := simCost(m)
		cost.Faults = sc.plan
		res, err := resilience.SUMMAARQ(cost, q, arqCfg, a, b)
		if err != nil {
			msg, _, _ := strings.Cut(err.Error(), "\n")
			t.AddRow(sc.name, "-", "-", "-", "-", "-", "-", "-", "-", msg)
			continue
		}
		rep := res.Report()
		e := core.PriceSim(m, res.Sim).Total()
		status := statusFor(sc.plan)
		if diff := res.C.MaxAbsDiff(base.C); diff != 0 {
			status = "OUTPUT DIVERGED"
		}
		t.AddRow(sc.name,
			fmt.Sprintf("%.4g", res.Sim.Time()),
			fmt.Sprintf("%.4g", e),
			fmt.Sprintf("%.3f", res.Sim.Time()/baseT),
			fmt.Sprintf("%.3f", e/baseE),
			rep.Retransmits, rep.DupsAbsorbed, rep.OptimisticSends,
			fmt.Sprintf("%.2g", res.C.MaxAbsDiff(base.C)),
			status)
	}
	emit(t)
}

// runDetector exercises the failure detector's three verdicts on a two-rank
// conversation: an observed exit is reported accurately (with the peer's
// own error as the cause), a wedged-but-alive peer is suspected after the
// probe budget, and a long compute phase is a false positive exactly until
// the computing rank covers it with heartbeats.
func runDetector(emit func(*report.Table), m machine.Params) {
	t := report.NewTable(
		"E23d: virtual-time heartbeat failure detection (p=2)",
		"scenario", "verdict", "exited", "clean", "misses", "probes", "beats", "t_detect (s)", "status")

	cost := simCost(m)
	cfg := resilience.ARQDefaults(cost, 8)
	// The detector budget is 3·DetectorInterval (two misses, backoff 2);
	// the compute scenarios below run 4 intervals of silence, so they trip
	// the detector unless heartbeats at every half interval cover them.
	cfg.DetectorMisses = 2
	interval := cfg.DetectorInterval
	chunkFlops := interval / (2 * m.GammaT)

	type verdictRow struct {
		name          string
		peer          func(r *sim.Rank, arq *resilience.ARQ) error
		me            func(r *sim.Rank, arq *resilience.ARQ) error
		expectFailure bool
	}
	crash := errors.New("injected crash")
	scenarios := []verdictRow{
		{
			name:          "peer dies (exit observed)",
			peer:          func(r *sim.Rank, arq *resilience.ARQ) error { return crash },
			me:            func(r *sim.Rank, arq *resilience.ARQ) error { _, err := arq.Recv(1); return err },
			expectFailure: true,
		},
		{
			name: "peer wedges silently",
			peer: func(r *sim.Rank, arq *resilience.ARQ) error {
				// Alive but unresponsive: consume probes, never answer.
				for {
					if _, out := r.RecvTimeout(0, 1e12); out != sim.RecvOK {
						return nil
					}
				}
			},
			me:            func(r *sim.Rank, arq *resilience.ARQ) error { _, err := arq.Recv(1); return err },
			expectFailure: true,
		},
		{
			name: "long compute, no heartbeats",
			peer: func(r *sim.Rank, arq *resilience.ARQ) error {
				for i := 0; i < 8; i++ {
					r.Compute(chunkFlops)
				}
				return arq.Send(0, []float64{1})
			},
			me:            func(r *sim.Rank, arq *resilience.ARQ) error { _, err := arq.Recv(1); return err },
			expectFailure: true,
		},
		{
			name: "long compute with heartbeats",
			peer: func(r *sim.Rank, arq *resilience.ARQ) error {
				for i := 0; i < 8; i++ {
					if err := arq.Heartbeat(0); err != nil {
						return err
					}
					r.Compute(chunkFlops)
				}
				return arq.Send(0, []float64{1})
			},
			me:            func(r *sim.Rank, arq *resilience.ARQ) error { _, err := arq.Recv(1); return err },
			expectFailure: false,
		},
	}

	for _, sc := range scenarios {
		var stats, peerStats resilience.ARQStats
		_, err := sim.Run(2, cost, func(r *sim.Rank) error {
			arq := resilience.NewARQ(r, cfg)
			if r.ID() == 1 {
				defer func() { peerStats = arq.Stats() }()
				return sc.peer(r, arq)
			}
			defer func() { stats = arq.Stats() }()
			return sc.me(r, arq)
		})
		var pf *resilience.PeerFailure
		detected := errors.As(err, &pf)
		status := "ok"
		switch {
		case detected != sc.expectFailure:
			status = "UNEXPECTED VERDICT"
		case detected:
			status = "detected"
		}
		if detected {
			t.AddRow(sc.name, "failed", pf.Exited, pf.Clean, pf.Misses,
				stats.ProbesSent, peerStats.BeatsSent, fmt.Sprintf("%.4g", pf.At), status)
		} else {
			t.AddRow(sc.name, "alive", "-", "-", stats.Misses,
				stats.ProbesSent, peerStats.BeatsSent, "-", status)
		}
	}
	emit(t)
}

// runRecover prints the energy-priced recovery controller's decision table:
// every strategy's predicted Eq. 1 time and Eq. 2 energy per failure
// context, and the argmin the controller picks. The contexts walk the
// feasibility lattice — with a replica ABFT wins, without one the buddy
// checkpoint, and with neither the controller falls back to respawning.
func runRecover(emit func(*report.Table), m machine.Params) {
	t := report.NewTable(
		fmt.Sprintf("E23e: energy-priced recovery controller on %s (strategy = argmin E over feasible set)", m.Name),
		"n", "q", "c", "step", "strategy", "feasible", "T_rec (s)", "E_rec (J)", "chosen")

	rc := resilience.NewRecoveryController(m)
	contexts := []resilience.FailureContext{
		{N: 256, Q: 4, Replicas: 2, Step: 3, Steps: 4, CheckpointPeriod: 2, HaveBuddy: true, SpareRebootTime: 0.5},
		{N: 256, Q: 4, Replicas: 1, Step: 3, Steps: 4, CheckpointPeriod: 2, HaveBuddy: true, SpareRebootTime: 0.5},
		{N: 256, Q: 4, Replicas: 1, Step: 3, Steps: 4, HaveBuddy: false, SpareRebootTime: 0.5},
		{N: 512, Q: 8, Replicas: 4, Step: 1, Steps: 8, CheckpointPeriod: 4, HaveBuddy: true, SpareRebootTime: 2},
	}
	for _, fc := range contexts {
		choice := rc.Choose(fc)
		for _, sc := range rc.Evaluate(fc) {
			feasible := "yes"
			timeCol, energyCol := fmt.Sprintf("%.4g", sc.Time), fmt.Sprintf("%.4g", sc.Energy)
			if !sc.Feasible {
				feasible = "no: " + sc.Reason
				timeCol, energyCol = "-", "-"
			}
			chosen := ""
			if sc.Feasible && sc.Strategy == choice.Strategy {
				chosen = "<== argmin E"
			}
			t.AddRow(fc.N, fc.Q, fc.Replicas, fmt.Sprintf("%d/%d", fc.Step, fc.Steps),
				sc.Strategy.String(), feasible, timeCol, energyCol, chosen)
		}
	}
	emit(t)
}
