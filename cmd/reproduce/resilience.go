package main

import (
	"errors"
	"fmt"
	"strings"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/report"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// e23 prices resilience with the paper's energy model: the fault-tolerant
// 2.5D matmul and the buddy-checkpointed stencil under deterministic
// injected faults, SUMMA over ARQ under silent drops, the heartbeat failure
// detector's verdicts and the energy-priced recovery controller's choices.
func (r *reporter) e23() {
	m := machine.SimDefault()
	const n = 96
	r.e23abft(m, n)
	r.e23checkpoint(m)
	r.e23drops(m, n)
	r.e23detector(m)
	r.e23recover(m)
}

// firstLine cuts a run error to its first line: sim.Run aggregates one
// error per rank, and the first carries the diagnosis.
func firstLine(err error) string {
	msg, _, _ := strings.Cut(err.Error(), "\n")
	return msg
}

// e23abft sweeps fault scenarios against the replication factor: the same
// c that buys 2.5D its communication-avoiding perfect scaling is the
// redundancy the ABFT recovery draws on, so c = 1 prices what having no
// spare copy costs (an unrecoverable run) and c > 1 prices recovery as a
// small energy surcharge over the fault-free run.
func (r *reporter) e23abft(m machine.Params, n int) {
	const q = 4
	t := report.NewTable(
		fmt.Sprintf("E23a: energy-priced ABFT 2.5D matmul, n=%d, q=%d (faults vs replication factor c)", n, q),
		"c", "p", "scenario", "T_sim (s)", "E (J)", "E/E_base", "max|dC|", "status")

	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	want := matmul.Serial(a, b)

	for _, c := range []int{1, 2, 4} {
		p := q * q * c
		base, err := resilience.ABFT25D(core.SimCost(m), q, c, a, b)
		if err != nil {
			r.fail(err)
			return
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
			cost := core.SimCost(m)
			cost.Faults = sc.plan
			res, err := resilience.ABFT25D(cost, q, c, a, b)
			if err != nil {
				// With c = 1 a crash has no replica to recover from.
				t.AddRow(c, p, sc.name, "-", "-", "-", "-", firstLine(err))
				if c > 1 {
					r.fail(fmt.Errorf("E23a c=%d %s: %s", c, sc.name, firstLine(err)))
				}
				continue
			}
			e := core.PriceSim(m, res.Sim).Total()
			diff := res.C.MaxAbsDiff(want)
			t.AddRow(c, p, sc.name,
				fmt.Sprintf("%.4g", res.Sim.Time()),
				fmt.Sprintf("%.4g", e),
				fmt.Sprintf("%.3f", e/baseE),
				fmt.Sprintf("%.2g", diff),
				statusFor(sc.plan))
			if diff > 1e-10 {
				r.fail(fmt.Errorf("E23a c=%d %s: product off the serial reference by %g", c, sc.name, diff))
			}
		}
	}
	r.table(t)
}

// e23checkpoint prices the checkpoint-interval tradeoff: frequent
// checkpoints spend energy on snapshot traffic every interval, rare ones
// spend it on longer rollback re-execution after a crash.
func (r *reporter) e23checkpoint(m machine.Params) {
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
		base, err := resilience.RunCheckpointed(core.SimCost(m), p, iters, every, init, step)
		if err != nil {
			r.fail(err)
			return
		}
		baseE := core.PriceSim(m, base.Sim).Total()

		cost := core.SimCost(m)
		cost.Faults = &sim.FaultPlan{
			Seed:       7,
			Crashes:    map[int]float64{2: 0.55 * base.Sim.Time()},
			Respawn:    true,
			RebootTime: 0.05 * base.Sim.Time(),
		}
		res, err := resilience.RunCheckpointed(cost, p, iters, every, init, step)
		if err != nil {
			t.AddRow(every, "-", "-", "-", "-", "-", firstLine(err))
			r.fail(fmt.Errorf("E23b every=%d: %s", every, firstLine(err)))
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
		if status != "recovered" {
			r.fail(fmt.Errorf("E23b every=%d: rolled-back state differs from the fault-free run", every))
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
	r.table(t)
}

// statusFor labels a completed run: "ok" for the fault-free baseline,
// "recovered" when a fault plan was actually in force.
func statusFor(plan *sim.FaultPlan) string {
	if plan == nil {
		return "ok"
	}
	return "recovered"
}

// e23drops sweeps silent-drop rates against the ARQ endpoints: faults that
// leave no evidence (no damaged frame, no duplicate) are recovered by
// virtual-time retransmission, the product stays bit-identical to the
// fault-free run, and the table prices what the recovery waiting costs in
// time and Eq. 2 joules.
func (r *reporter) e23drops(m machine.Params, n int) {
	const q = 4
	t := report.NewTable(
		fmt.Sprintf("E23c: self-healing SUMMA over ARQ, n=%d, q=%d, p=%d (silent drops vs retransmission)", n, q, q*q),
		"scenario", "T_sim (s)", "E (J)", "T/T_base", "E/E_base", "retx", "dups", "optimistic", "max|dC|", "status")

	a := matrix.Random(n, n, 11)
	b := matrix.Random(n, n, 12)
	nb := n / q
	arqCfg := resilience.ARQDefaults(core.SimCost(m), nb*nb)

	base, err := resilience.SUMMAARQ(core.SimCost(m), q, arqCfg, a, b)
	if err != nil {
		r.fail(err)
		return
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
		cost := core.SimCost(m)
		cost.Faults = sc.plan
		res, err := resilience.SUMMAARQ(cost, q, arqCfg, a, b)
		if err != nil {
			t.AddRow(sc.name, "-", "-", "-", "-", "-", "-", "-", "-", firstLine(err))
			r.fail(fmt.Errorf("E23c %s: %s", sc.name, firstLine(err)))
			continue
		}
		rep := res.Report()
		e := core.PriceSim(m, res.Sim).Total()
		status := statusFor(sc.plan)
		diff := res.C.MaxAbsDiff(base.C)
		if diff != 0 {
			status = "OUTPUT DIVERGED"
			r.fail(fmt.Errorf("E23c %s: product differs from the fault-free run by %g", sc.name, diff))
		}
		t.AddRow(sc.name,
			fmt.Sprintf("%.4g", res.Sim.Time()),
			fmt.Sprintf("%.4g", e),
			fmt.Sprintf("%.3f", res.Sim.Time()/baseT),
			fmt.Sprintf("%.3f", e/baseE),
			rep.Retransmits, rep.DupsAbsorbed, rep.OptimisticSends,
			fmt.Sprintf("%.2g", diff),
			status)
	}
	r.table(t)
}

// e23detector exercises the failure detector's three verdicts on a
// two-rank conversation: an observed exit is reported accurately (with the
// peer's own error as the cause), a wedged-but-alive peer is suspected
// after the probe budget, and a long compute phase is a false positive
// exactly until the computing rank covers it with heartbeats.
func (r *reporter) e23detector(m machine.Params) {
	t := report.NewTable(
		"E23d: virtual-time heartbeat failure detection (p=2)",
		"scenario", "verdict", "exited", "clean", "misses", "probes", "beats", "t_detect (s)", "status")

	cost := core.SimCost(m)
	cfg := resilience.ARQDefaults(cost, 8)
	// The detector budget is 3·DetectorInterval (two misses, backoff 2);
	// the compute scenarios below run 4 intervals of silence, so they trip
	// the detector unless heartbeats at every half interval cover them.
	cfg.DetectorMisses = 2
	chunkFlops := cfg.DetectorInterval / (2 * m.GammaT)

	crash := errors.New("injected crash")
	scenarios := []struct {
		name          string
		peer          func(r *sim.Rank, arq *resilience.ARQ) error
		expectFailure bool
	}{
		{"peer dies (exit observed)", func(r *sim.Rank, arq *resilience.ARQ) error { return crash }, true},
		{"peer wedges silently", func(r *sim.Rank, arq *resilience.ARQ) error {
			// Alive but unresponsive: consume probes, never answer.
			for {
				if _, out := r.RecvTimeout(0, 1e12); out != sim.RecvOK {
					return nil
				}
			}
		}, true},
		{"long compute, no heartbeats", func(r *sim.Rank, arq *resilience.ARQ) error {
			for i := 0; i < 8; i++ {
				r.Compute(chunkFlops)
			}
			return arq.Send(0, []float64{1})
		}, true},
		{"long compute with heartbeats", func(r *sim.Rank, arq *resilience.ARQ) error {
			for i := 0; i < 8; i++ {
				if err := arq.Heartbeat(0); err != nil {
					return err
				}
				r.Compute(chunkFlops)
			}
			return arq.Send(0, []float64{1})
		}, false},
	}

	for _, sc := range scenarios {
		var stats, peerStats resilience.ARQStats
		_, err := sim.Run(2, cost, func(rk *sim.Rank) error {
			arq := resilience.NewARQ(rk, cfg)
			if rk.ID() == 1 {
				defer func() { peerStats = arq.Stats() }()
				return sc.peer(rk, arq)
			}
			defer func() { stats = arq.Stats() }()
			_, err := arq.Recv(1)
			return err
		})
		var pf *resilience.PeerFailure
		detected := errors.As(err, &pf)
		status := "ok"
		switch {
		case detected != sc.expectFailure:
			status = "UNEXPECTED VERDICT"
			r.fail(fmt.Errorf("E23d %s: peer failure detected = %v, want %v", sc.name, detected, sc.expectFailure))
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
	r.table(t)
}

// e23recover prints the energy-priced recovery controller's decision table:
// every strategy's predicted Eq. 1 time and Eq. 2 energy per failure
// context, and the argmin the controller picks. The contexts walk the
// feasibility lattice — with a replica ABFT wins, without one the buddy
// checkpoint, and with neither the controller falls back to respawning.
func (r *reporter) e23recover(m machine.Params) {
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
		marked := false
		for _, sc := range rc.Evaluate(fc) {
			feasible := "yes"
			timeCol, energyCol := fmt.Sprintf("%.4g", sc.Time), fmt.Sprintf("%.4g", sc.Energy)
			if !sc.Feasible {
				feasible = "no: " + sc.Reason
				timeCol, energyCol = "-", "-"
			}
			chosen := ""
			if sc.Feasible && sc.Strategy == choice.Strategy {
				chosen, marked = "<== argmin E", true
			}
			t.AddRow(fc.N, fc.Q, fc.Replicas, fmt.Sprintf("%d/%d", fc.Step, fc.Steps),
				sc.Strategy.String(), feasible, timeCol, energyCol, chosen)
		}
		if !marked {
			r.fail(fmt.Errorf("E23e n=%d q=%d c=%d: the controller chose no feasible strategy", fc.N, fc.Q, fc.Replicas))
		}
	}
	r.table(t)
}
