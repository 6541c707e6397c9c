package sim

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// recObs is a test subscriber that keeps everything under one mutex (the
// bus delivers from many rank goroutines concurrently).
type recObs struct {
	mu        sync.Mutex
	segs      map[int][]Segment // all segments by rank, in arrival order
	phases    map[int][]phaseMark
	faults    []FaultEvent
	crashes   []CrashEvent
	deadlocks []DeadlockEvent
	timers    []TimerEvent
}

// phaseMark is one recorded Phase annotation.
type phaseMark struct {
	Name string
	Time float64
}

func newRecObs() *recObs {
	return &recObs{segs: map[int][]Segment{}, phases: map[int][]phaseMark{}}
}

func (o *recObs) add(rank int, seg Segment) {
	o.mu.Lock()
	o.segs[rank] = append(o.segs[rank], seg)
	o.mu.Unlock()
}

func (o *recObs) OnCompute(rank int, seg Segment) { o.add(rank, seg) }
func (o *recObs) OnSend(rank int, seg Segment)    { o.add(rank, seg) }
func (o *recObs) OnRecv(rank int, seg Segment)    { o.add(rank, seg) }
func (o *recObs) OnPhase(rank int, name string, at float64) {
	o.mu.Lock()
	o.phases[rank] = append(o.phases[rank], phaseMark{Name: name, Time: at})
	o.mu.Unlock()
}
func (o *recObs) OnFault(ev FaultEvent) {
	o.mu.Lock()
	o.faults = append(o.faults, ev)
	o.mu.Unlock()
}
func (o *recObs) OnCrash(ev CrashEvent) {
	o.mu.Lock()
	o.crashes = append(o.crashes, ev)
	o.mu.Unlock()
}
func (o *recObs) OnDeadlock(ev DeadlockEvent) {
	o.mu.Lock()
	o.deadlocks = append(o.deadlocks, ev)
	o.mu.Unlock()
}
func (o *recObs) OnTimer(ev TimerEvent) {
	o.mu.Lock()
	o.timers = append(o.timers, ev)
	o.mu.Unlock()
}

func TestObserverSegmentsMatchStats(t *testing.T) {
	// The bus must deliver every timeline segment: per rank, summing the
	// delivered durations by kind reproduces the Stats decomposition.
	// Equality is up to rounding: Stats adds each dt directly, segments
	// store (clock+dt)−clock endpoints.
	obs := newRecObs()
	cost := Cost{
		GammaT: 1e-3, AlphaT: 0.5, BetaT: 0.01,
		ChargeReceiver: true,
		Observers:      []Observer{obs},
	}
	res, err := Run(4, cost, func(r *Rank) error {
		w := r.World()
		r.Compute(float64(100 * (r.ID() + 1)))
		data := w.Shift(make([]float64, 16), 1)
		r.Compute(25)
		w.AllReduce(data, OpSum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, st := range res.PerRank {
		var compute, send, recv, wait float64
		prevEnd := 0.0
		for _, seg := range obs.segs[rank] {
			if seg.Start < prevEnd-1e-15 {
				t.Fatalf("rank %d: segment %+v starts before previous end %g", rank, seg, prevEnd)
			}
			prevEnd = seg.End
			switch seg.Kind {
			case SegCompute:
				compute += seg.Duration()
			case SegSend:
				send += seg.Duration()
			case SegRecv:
				recv += seg.Duration()
			case SegWait:
				wait += seg.Duration()
			}
		}
		approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
		if !approx(compute, st.ComputeTime) || !approx(send, st.SendTime) || !approx(recv, st.RecvTime) || !approx(wait, st.WaitTime) {
			t.Errorf("rank %d: bus durations (%g,%g,%g,%g) != stats (%g,%g,%g,%g)",
				rank, compute, send, recv, wait,
				st.ComputeTime, st.SendTime, st.RecvTime, st.WaitTime)
		}
	}
}

func TestTraceRecordsSegments(t *testing.T) {
	obs := newRecObs()
	cost := Cost{GammaT: 1, AlphaT: 10, BetaT: 1, Observers: []Observer{obs}}
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(5)
			r.Send(1, []float64{1, 2}) // 10 + 2 = 12
		} else {
			r.Recv(0) // waits until 17
			r.Compute(3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	segs0 := obs.segs[0]
	if len(segs0) != 2 || segs0[0].Kind != SegCompute || segs0[1].Kind != SegSend {
		t.Fatalf("rank 0 segments: %+v", segs0)
	}
	if segs0[1].Start != 5 || segs0[1].End != 17 || segs0[1].Peer != 1 || segs0[1].Words != 2 {
		t.Errorf("send segment: %+v", segs0[1])
	}
	segs1 := obs.segs[1]
	if len(segs1) != 2 || segs1[0].Kind != SegWait || segs1[1].Kind != SegCompute {
		t.Fatalf("rank 1 segments: %+v", segs1)
	}
	if segs1[0].Start != 0 || segs1[0].End != 17 || segs1[0].Peer != 0 {
		t.Errorf("wait segment: %+v", segs1[0])
	}
}

func TestSegmentKindString(t *testing.T) {
	names := map[SegmentKind]string{
		SegCompute: "compute", SegSend: "send", SegWait: "wait", SegRecv: "recv",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: got %q", int(k), k.String())
		}
	}
	if SegmentKind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestObserverComputeCarriesFlops(t *testing.T) {
	obs := newRecObs()
	cost := Cost{GammaT: 1e-6, Observers: []Observer{obs}}
	if _, err := Run(1, cost, func(r *Rank) error {
		r.Compute(123)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	segs := obs.segs[0]
	if len(segs) != 1 || segs[0].Kind != SegCompute || segs[0].Flops != 123 {
		t.Fatalf("want one compute segment with Flops=123, got %+v", segs)
	}
}

func TestPhaseMarksReachBusAndTrace(t *testing.T) {
	// Every subscriber sees every phase mark, at the rank's clock.
	obs, second := newRecObs(), newRecObs()
	cost := Cost{GammaT: 1e-3, AlphaT: 0.1, BetaT: 0.01, Observers: []Observer{obs, second}}
	_, err := Run(2, cost, func(r *Rank) error {
		r.Phase("setup")
		r.Compute(100)
		r.Phase("exchange")
		other := 1 - r.ID()
		r.Send(other, make([]float64, 4))
		r.Recv(other)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		want := []phaseMark{{Name: "setup", Time: 0}, {Name: "exchange", Time: 0.1}}
		for _, got := range [][]phaseMark{obs.phases[rank], second.phases[rank]} {
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Errorf("rank %d: phases %+v, want %+v", rank, got, want)
			}
		}
	}
}

func TestPhaseIsFree(t *testing.T) {
	run := func(phases bool) *Result {
		res, err := Run(2, Cost{GammaT: 1e-3, AlphaT: 0.1, BetaT: 0.01}, func(r *Rank) error {
			if phases {
				r.Phase("a")
			}
			r.Compute(10)
			if phases {
				r.Phase("b")
			}
			r.Send(1-r.ID(), make([]float64, 2))
			r.Recv(1 - r.ID())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	for id := range with.PerRank {
		if with.PerRank[id] != without.PerRank[id] {
			t.Errorf("rank %d: Phase changed stats: %+v vs %+v", id, with.PerRank[id], without.PerRank[id])
		}
	}
}

func TestObserverFaultEvents(t *testing.T) {
	obs := newRecObs()
	plan := &FaultPlan{
		Seed: 7,
		Links: []LinkFault{
			{Src: -1, Dst: -1, DropProb: 1}, // every send dropped
		},
		Degraded: []DegradedLink{
			{Src: -1, Dst: -1, AlphaFactor: 4, BetaFactor: 2},
		},
	}
	cost := Cost{AlphaT: 0.5, BetaT: 0.01, Faults: plan, Observers: []Observer{obs}}
	if _, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, make([]float64, 8))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var sawDrop, sawDegraded bool
	for _, ev := range obs.faults {
		switch ev.Kind {
		case FaultDrop:
			sawDrop = true
			if ev.Src != 0 || ev.Dst != 1 || ev.Words != 8 {
				t.Errorf("drop event wrong: %+v", ev)
			}
		case FaultDegraded:
			sawDegraded = true
			if ev.AlphaFactor != 4 || ev.BetaFactor != 2 {
				t.Errorf("degraded factors wrong: %+v", ev)
			}
			if ev.Time != 0 {
				t.Errorf("degraded event should carry the send start, got t=%g", ev.Time)
			}
		}
	}
	if !sawDrop || !sawDegraded {
		t.Fatalf("missing fault events: drop=%v degraded=%v (%+v)", sawDrop, sawDegraded, obs.faults)
	}
}

func TestObserverCrashEvents(t *testing.T) {
	obs := newRecObs()
	plan := &FaultPlan{Crashes: map[int]float64{0: 0.05}, Respawn: true, RebootTime: 1.5}
	cost := Cost{GammaT: 1e-3, Faults: plan, Observers: []Observer{obs}}
	res, err := Run(1, cost, func(r *Rank) error {
		r.Compute(100) // clock 0.1 ≥ 0.05 → crash fires on the next op
		r.Compute(100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.crashes) != 1 {
		t.Fatalf("want one crash event, got %+v", obs.crashes)
	}
	ev := obs.crashes[0]
	if ev.Rank != 0 || !ev.Respawn || ev.Scheduled != 0.05 || ev.Time != 0.1 {
		t.Errorf("crash event wrong: %+v", ev)
	}
	if want := 0.2 + 1.5; math.Abs(res.Time()-want) > 1e-12 {
		t.Errorf("reboot wait not accounted: T=%g want %g", res.Time(), want)
	}
}

// Satellite: traced SegSend segments inside degraded-bandwidth windows must
// carry the degraded αt/βt-priced duration, so per-rank trace totals agree
// with Stats exactly — under ChargeReceiver the receive side too.
func TestDegradedSendSegmentsMatchStatsTotals(t *testing.T) {
	plan := &FaultPlan{
		Degraded: []DegradedLink{
			{Src: -1, Dst: -1, From: 0, Until: 2, AlphaFactor: 8, BetaFactor: 3},
		},
	}
	obs := newRecObs()
	cost := Cost{
		AlphaT: 0.25, BetaT: 0.01, GammaT: 1e-3,
		ChargeReceiver: true, Faults: plan, Observers: []Observer{obs},
	}
	res, err := Run(2, cost, func(r *Rank) error {
		other := 1 - r.ID()
		for i := 0; i < 4; i++ {
			r.Send(other, make([]float64, 10))
			r.Recv(other)
			r.Compute(100)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first sends happen inside the window: their traced duration must
	// be the inflated 8·α + 10·3·β, not the base price.
	first := obs.segs[0][0]
	if first.Kind != SegSend {
		t.Fatalf("first segment is %v, want send", first.Kind)
	}
	if want := 8*0.25 + 3*0.01*10; math.Abs(first.Duration()-want) > 1e-15 {
		t.Errorf("degraded send duration %g, want %g", first.Duration(), want)
	}
	// And every rank's summed segment durations equal its Stats totals
	// exactly — the pin that pricing and trace can never disagree again.
	for rank, segs := range obs.segs {
		var send, recv float64
		for _, seg := range segs {
			switch seg.Kind {
			case SegSend:
				send += seg.Duration()
			case SegRecv:
				recv += seg.Duration()
			}
		}
		st := res.PerRank[rank]
		if math.Abs(send-st.SendTime) > 1e-12*st.SendTime {
			t.Errorf("rank %d: traced send total %g != Stats.SendTime %g", rank, send, st.SendTime)
		}
		if math.Abs(recv-st.RecvTime) > 1e-12*st.RecvTime {
			t.Errorf("rank %d: traced recv total %g != Stats.RecvTime %g", rank, recv, st.RecvTime)
		}
	}
}

// Satellite: the DeadlockError carries a full cluster snapshot
// and is emitted through the event bus.
func TestDeadlockSnapshotAndBusEvent(t *testing.T) {
	obs := newRecObs()
	cost := Cost{
		AlphaT: 0.1, BetaT: 0.01,
		Observers: []Observer{obs},
	}
	// Rank 0 sends to 1 then waits on 1; rank 1 never sends and waits on
	// 0's second message: a deadlock with one undelivered message queued
	// on 0→1.
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, make([]float64, 4))
			r.Recv(1)
		} else {
			r.Recv(0)
			r.Recv(0)
		}
		return nil
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	snap := de.Snapshot
	if snap == nil {
		t.Fatal("DeadlockError.Snapshot missing")
	}
	if len(snap.Ranks) != 2 {
		t.Fatalf("snapshot has %d ranks, want 2", len(snap.Ranks))
	}
	if rs := snap.Ranks[0]; rs.State != "blocked-recv" || rs.Peer != 1 {
		t.Errorf("rank 0 snapshot: %+v, want blocked-recv on 1", rs)
	}
	if rs := snap.Ranks[1]; rs.State != "blocked-recv" || rs.Peer != 0 {
		t.Errorf("rank 1 snapshot: %+v, want blocked-recv on 0", rs)
	}
	// Rank 0's last act before blocking was its send; the snapshot says so.
	if rs := snap.Ranks[0]; rs.LastSeg == nil || rs.LastSeg.Kind != SegSend {
		t.Errorf("rank 0 last segment: %+v, want a send", rs.LastSeg)
	}
	// Rank 1 consumed message one but message two was never sent; no pair
	// holds undelivered traffic. Rank 1's first Recv drained the queue, so
	// Queued must be empty — the diagnostic that tells "never sent" apart
	// from "sent but stuck".
	if len(snap.Queued) != 0 {
		t.Errorf("queued pairs %+v, want none", snap.Queued)
	}
	if len(obs.deadlocks) == 0 {
		t.Fatal("no OnDeadlock events on the bus")
	}
	if obs.deadlocks[0].Err.Snapshot != snap && obs.deadlocks[len(obs.deadlocks)-1].Err.Snapshot != snap {
		t.Error("bus deadlock events do not share the error's snapshot")
	}
	if !strings.Contains(snap.String(), "blocked-recv") {
		t.Errorf("snapshot renders without states: %q", snap.String())
	}
}

func TestDeadlockSnapshotQueuedPairs(t *testing.T) {
	cost := Cost{
		AlphaT: 0.1, BetaT: 0.01,
	}
	// Rank 0 sends twice to 1 but rank 1 waits on rank 2 (who never
	// sends): the two messages stay queued on pair 0→1.
	_, err := Run(3, cost, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, make([]float64, 4))
			r.Send(1, make([]float64, 4))
			r.Recv(1)
		case 1:
			r.Recv(2)
		case 2:
			r.Recv(1)
		}
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) || de.Snapshot == nil {
		t.Fatalf("want DeadlockError with snapshot, got %v", err)
	}
	found := false
	for _, q := range de.Snapshot.Queued {
		if q.Src == 0 && q.Dst == 1 && q.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("queued pair 0->1 count 2 missing: %+v", de.Snapshot.Queued)
	}
}

// TestObserverKeepsErrorVerdicts runs erroneous collective programs —
// members disagreeing about a broadcast root, and one rank skipping an
// AllReduce the others enter — with and without an observer, at one and
// four workers. Neither the observer nor the host schedule may change how
// a run fails: the error text is the same. The mismatched-roots program
// runs as a closure and as a Stepper (a one-word BcastLargeInto takes the
// binomial fallback); both hosts give one verdict, which names the
// lowest-index pair of members that disagree, whichever member arrived
// last.
func TestObserverKeepsErrorVerdicts(t *testing.T) {
	root := func(id int) int {
		if id == 0 {
			return 0
		}
		return 1
	}
	closures := map[string]func(r *Rank) error{
		"mismatched Bcast roots": func(r *Rank) error {
			r.World().Bcast(root(r.ID()), []float64{float64(r.ID())})
			return nil
		},
		"mismatched BcastLargeInto roots": func(r *Rank) error {
			r.World().BcastLargeInto(nil, root(r.ID()), []float64{float64(r.ID())})
			return nil
		},
		"skipped AllReduce": func(r *Rank) error {
			if r.ID() == r.P()-1 {
				return nil
			}
			r.World().AllReduce([]float64{1}, OpSum)
			return nil
		},
	}
	stepper := scripted(func(id int) []func(r *Rank) bool {
		return []func(r *Rank) bool{func(r *Rank) bool {
			_, ok := r.World().TryBcastLargeInto(nil, root(id), []float64{float64(id)})
			return ok
		}}
	})
	verdicts := map[string]string{}
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: want the run to fail", name)
		}
		if want, ok := verdicts[name]; ok && err.Error() != want {
			t.Errorf("%s: the verdict moved\n  got:  %v\n  want: %v", name, err, want)
		}
		verdicts[name] = err.Error()
	}
	for rep := 0; rep < 20; rep++ {
		for _, w := range []int{1, 4} {
			for _, observed := range []bool{false, true} {
				cost := unitCost
				cost.Workers = w
				if observed {
					cost.Observers = []Observer{newRecObs()}
				}
				for name, prog := range closures {
					_, err := Run(4, cost, prog)
					check(name, err)
				}
				_, err := RunSteps(4, cost, stepper)
				check("mismatched BcastLargeInto roots", err)
			}
		}
	}
	if v := verdicts["mismatched BcastLargeInto roots"]; !strings.Contains(v, "rank 0 (member 0) passed 0, rank 1 (member 1) passed 1") {
		t.Errorf("the mismatch verdict does not name members 0 and 1: %v", v)
	}
}
