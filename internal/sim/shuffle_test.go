package sim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"perfscale/internal/fft"
	"perfscale/internal/lu"
	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/nbody"
	"perfscale/internal/sim"
	"perfscale/internal/strassen"
)

// streams records every observer event under the rank it belongs to, in
// the order the rank's program produced it.
type streams struct {
	mu  sync.Mutex
	per map[int][]any
}

func (o *streams) add(rank int, ev any) {
	o.mu.Lock()
	o.per[rank] = append(o.per[rank], ev)
	o.mu.Unlock()
}

func (o *streams) OnCompute(rank int, seg sim.Segment)       { o.add(rank, seg) }
func (o *streams) OnSend(rank int, seg sim.Segment)          { o.add(rank, seg) }
func (o *streams) OnRecv(rank int, seg sim.Segment)          { o.add(rank, seg) }
func (o *streams) OnPhase(rank int, name string, at float64) { o.add(rank, fmt.Sprint(name, at)) }
func (o *streams) OnFault(ev sim.FaultEvent)                 { o.add(ev.Src, ev) }
func (o *streams) OnCrash(ev sim.CrashEvent)                 { o.add(ev.Rank, ev) }
func (o *streams) OnDeadlock(ev sim.DeadlockEvent)           { o.add(ev.Err.Rank, ev.Err.Error()) }
func (o *streams) OnTimer(ev sim.TimerEvent)                 { o.add(ev.Rank, ev) }

// outcome is what a run leaves that must not depend on the schedule.
type outcome struct {
	res    *sim.Result
	err    string
	events map[int][]any
}

func observe(run func(sim.Cost) (*sim.Result, error), cost sim.Cost) outcome {
	obs := &streams{per: map[int][]any{}}
	cost.Workers = 1
	cost.Observers = []sim.Observer{obs}
	res, err := run(cost)
	out := outcome{res: res, events: obs.per}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

func sameOutcome(t *testing.T, name string, want, got outcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error text moved\n  FIFO:     %.400s\n  shuffled: %.400s", name, want.err, got.err)
	}
	if (want.res == nil) != (got.res == nil) {
		t.Fatalf("%s: FIFO result %v, shuffled result %v", name, want.res != nil, got.res != nil)
	}
	if want.res != nil {
		if got.res.ActivePairs != want.res.ActivePairs {
			t.Errorf("%s: ActivePairs %d, FIFO %d", name, got.res.ActivePairs, want.res.ActivePairs)
		}
		for id := range want.res.PerRank {
			if got.res.PerRank[id] != want.res.PerRank[id] {
				t.Fatalf("%s: rank %d stats moved\n  FIFO:     %+v\n  shuffled: %+v", name, id, want.res.PerRank[id], got.res.PerRank[id])
			}
		}
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d ranks observed, FIFO %d", name, len(got.events), len(want.events))
	}
	for id, evs := range want.events {
		if !reflect.DeepEqual(got.events[id], evs) {
			t.Fatalf("%s: rank %d's observer stream moved (%d events, FIFO %d)", name, id, len(got.events[id]), len(evs))
		}
	}
}

// TestShuffledSchedulePrograms holds the paper's programs to their FIFO
// runs on one worker under three shuffled schedules: the worker pops a
// random runnable rank and every wake joins a random end of the queue.
// Per-rank Stats, ActivePairs, per-rank observer streams and error texts
// must not move, fault-free and with rank 1 crashing halfway through its
// own run. The programs are the collective tour, both 2.5D matmuls
// (Steppers) and the closure programs of the conformance quick grid, at
// its shapes.
func TestShuffledSchedulePrograms(t *testing.T) {
	requireShuffled(t)
	mat := func(r *matmul.RunResult, err error) (*sim.Result, error) {
		if err != nil {
			return nil, err
		}
		return r.Sim, nil
	}
	a48, b48 := matrix.Random(48, 48, 1), matrix.Random(48, 48, 2)
	a32, b32 := matrix.Random(32, 32, 5), matrix.Random(32, 32, 6)
	a56, b56 := matrix.Random(56, 56, 7), matrix.Random(56, 56, 8)
	wide, wideB := matrix.Random(24, 16, 12), matrix.Random(16, 32, 13)
	tall, tallB := matrix.Random(64, 8, 12), matrix.Random(8, 8, 13)
	diag := matrix.RandomDiagDominant(32, 9)
	signal := fft.RandomSignal(512, 11)
	programs := []struct {
		name string
		run  func(sim.Cost) (*sim.Result, error)
	}{
		{"tour", func(c sim.Cost) (*sim.Result, error) { return sim.Run(16, c, sim.CollectiveTour) }},
		{"cannon25d", func(c sim.Cost) (*sim.Result, error) { return mat(matmul.TwoPointFiveD(c, 4, 2, a48, b48)) }},
		{"summa25d", func(c sim.Cost) (*sim.Result, error) { return mat(matmul.TwoPointFiveDSUMMA(c, 4, 2, a48, b48)) }},
		{"matmul3d", func(c sim.Cost) (*sim.Result, error) { return mat(matmul.ThreeD(c, 2, a32, b32)) }},
		{"summarect-wide", func(c sim.Cost) (*sim.Result, error) { return mat(matmul.SUMMARect(c, 2, 4, 4, wide, wideB)) }},
		{"summarect-tall", func(c sim.Cost) (*sim.Result, error) { return mat(matmul.SUMMARect(c, 4, 2, 2, tall, tallB)) }},
		{"caps", func(c sim.Cost) (*sim.Result, error) {
			r, err := strassen.CAPS(c, 1, a56, b56, 8)
			if err != nil {
				return nil, err
			}
			return r.Sim, nil
		}},
		{"lu", func(c sim.Cost) (*sim.Result, error) {
			r, err := lu.Stacked(c, 4, 2, diag)
			if err != nil {
				return nil, err
			}
			return r.Sim, nil
		}},
		{"nbody-c1", func(c sim.Cost) (*sim.Result, error) { return runNBody(c, 64, 8, 1) }},
		{"nbody-c2", func(c sim.Cost) (*sim.Result, error) { return runNBody(c, 128, 16, 2) }},
		{"fft-tree", func(c sim.Cost) (*sim.Result, error) { return runFFT(c, signal, true) }},
		{"fft-naive", func(c sim.Cost) (*sim.Result, error) { return runFFT(c, signal, false) }},
	}
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	for _, pg := range programs {
		clean := observe(pg.run, cost)
		if clean.err != "" {
			t.Fatalf("%s: %s", pg.name, clean.err)
		}
		crashed := cost
		crashed.Faults = &sim.FaultPlan{Crashes: map[int]float64{1: clean.res.PerRank[1].Time / 2}}
		fifo := []outcome{clean, observe(pg.run, crashed)}
		if fifo[1].err == "" {
			t.Fatalf("%s: the crash plan does not fail the run", pg.name)
		}
		for _, seed := range []uint64{1, 2, 3} {
			restore := sim.ShuffleSchedules(seed)
			for i, c := range []sim.Cost{cost, crashed} {
				sameOutcome(t, fmt.Sprintf("%s, plan %d, seed %d", pg.name, i, seed), fifo[i], observe(pg.run, c))
			}
			restore()
		}
	}
}

// requireShuffled checks that the seam is live: the first wave's order on
// one worker moves under a shuffled schedule.
func requireShuffled(t *testing.T) {
	t.Helper()
	order := func() string {
		var ids []int
		if _, err := sim.Run(16, sim.Cost{Workers: 1}, func(r *sim.Rank) error {
			ids = append(ids, r.ID()) // one worker: no two ranks run at once
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(ids)
	}
	fifo := order()
	defer sim.ShuffleSchedules(1)()
	if order() == fifo {
		t.Fatalf("a shuffled schedule ran the first wave in FIFO order %s", fifo)
	}
}

func runNBody(c sim.Cost, n, p, rep int) (*sim.Result, error) {
	r, err := nbody.Replicated(c, p, rep, nbody.RandomBodies(n, 10))
	if err != nil {
		return nil, err
	}
	return r.Sim, nil
}

func runFFT(c sim.Cost, x []complex128, tree bool) (*sim.Result, error) {
	r, err := fft.Distributed(c, 8, x, tree)
	if err != nil {
		return nil, err
	}
	return r.Sim, nil
}
