package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// runSchedules executes the same program on a one-worker and a four-worker
// engine — two different host schedules of the same ranks — and requires
// bitwise-identical outcomes: per-rank Stats structs compare with ==
// (float64 equality, no tolerance), ActivePairs must match, and a failing
// run must fail with the same text. It returns the one-worker Result.
func runSchedules(t *testing.T, p int, cost Cost, fn func(r *Rank) error) *Result {
	t.Helper()
	cost.Workers = 1
	one, oneErr := Run(p, cost, fn)
	cost.Workers = 4
	four, fourErr := Run(p, cost, fn)
	if (oneErr == nil) != (fourErr == nil) {
		t.Fatalf("error mismatch: one worker=%v four workers=%v", oneErr, fourErr)
	}
	if oneErr != nil && oneErr.Error() != fourErr.Error() {
		t.Fatalf("error text mismatch:\n  one worker:   %v\n  four workers: %v", oneErr, fourErr)
	}
	if one != nil && four != nil {
		requireSameResult(t, "one worker", one, "four workers", four)
	}
	return one
}

// requireSameResult is the bitwise comparison behind runSchedules:
// ActivePairs and every per-rank Stats (hence Time()) must be equal.
func requireSameResult(t *testing.T, aName string, a *Result, bName string, b *Result) {
	t.Helper()
	if a.ActivePairs != b.ActivePairs {
		t.Errorf("ActivePairs: %s=%d %s=%d", aName, a.ActivePairs, bName, b.ActivePairs)
	}
	for i := range a.PerRank {
		if a.PerRank[i] != b.PerRank[i] {
			t.Errorf("rank %d stats differ:\n  %s: %+v\n  %s: %+v", i, aName, a.PerRank[i], bName, b.PerRank[i])
		}
	}
}

func TestRuntimeValidation(t *testing.T) {
	cost := zeroCost
	cost.Workers = -1
	if _, err := NewCluster(2, cost); err == nil {
		t.Error("negative worker count must be rejected")
	}
}

func TestEventBackendSendRecv(t *testing.T) {
	res, err := Run(2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1, 2, 3})
		} else {
			got := r.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("rank 1 received %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[0].WordsSent != 3 || res.PerRank[0].MsgsSent != 1 {
		t.Errorf("sender counters: %+v", res.PerRank[0])
	}
	if res.PerRank[1].Time != res.PerRank[0].Time {
		t.Errorf("receiver clock %g != sender clock %g",
			res.PerRank[1].Time, res.PerRank[0].Time)
	}
}

// TestEventBackendBackpressure fills a bounded mailbox so the sender must
// park on a full queue and be woken by the receiver's dequeues.
func TestEventBackendBackpressure(t *testing.T) {
	cost := unitCost
	cost.ChanCap = 2
	runSchedules(t, 2, cost, func(r *Rank) error {
		const n = 20
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, []float64{float64(i)})
			}
		} else {
			r.Compute(50) // let the queue fill first
			for i := 0; i < n; i++ {
				got := r.Recv(0)
				if got[0] != float64(i) {
					return errors.New("out-of-order delivery")
				}
			}
		}
		return nil
	})
}

// TestEventBackendCollectivesIdentical drives every collective down both of
// its implementations — member by member (an observer attached forces it)
// and conducted — and demands bitwise-identical Results, each on two
// schedules.
func TestEventBackendCollectivesIdentical(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8} {
		cost := unitCost
		cost.Observers = []Observer{nopObserver{}}
		generic := runSchedules(t, p, cost, collectiveTour)
		conducted := runSchedules(t, p, unitCost, collectiveTour)
		requireSameResult(t, "generic", generic, "conducted", conducted)
	}
}

// TestEventBackendFastForwardIdentical runs the same tour with no observer,
// fault plan, or context, so the engine takes the fast-forward path, whose
// Results must not depend on which member arrives last and conducts.
func TestEventBackendFastForwardIdentical(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8, 16} {
		runSchedules(t, p, unitCost, collectiveTour)
	}
}

// nopObserver exists only to disqualify the fast-forward path.
type nopObserver struct{}

func (nopObserver) OnCompute(int, Segment)       {}
func (nopObserver) OnSend(int, Segment)          {}
func (nopObserver) OnRecv(int, Segment)          {}
func (nopObserver) OnPhase(int, string, float64) {}
func (nopObserver) OnFault(FaultEvent)           {}
func (nopObserver) OnCrash(CrashEvent)           {}
func (nopObserver) OnDeadlock(DeadlockEvent)     {}
func (nopObserver) OnTimer(TimerEvent)           {}

// collectiveTour exercises every primitive and composite collective plus
// point-to-point traffic in one program.
func collectiveTour(r *Rank) error {
	w := r.World()
	p := w.Size()
	me := float64(r.ID())
	r.Compute(10 * (me + 1)) // stagger the clocks

	data := []float64{me, me + 1, me + 2}
	data = w.Shift(data, 1)
	_ = w.Bcast(0, []float64{me, 42})
	_ = w.Reduce(p-1, data, OpSum)
	_ = w.AllReduce([]float64{me}, OpSum)
	_ = w.AllGather([]float64{me, -me})
	vec := make([]float64, 2*p)
	for i := range vec {
		vec[i] = me*100 + float64(i)
	}
	_ = w.ReduceScatter(vec, OpSum)
	_ = w.AllToAll(vec)
	_ = w.AllToAllTree(vec)
	w.Barrier()
	_ = w.Gather(0, []float64{me})
	if r.ID() == 0 {
		root := make([]float64, p)
		for i := range root {
			root[i] = float64(i * i)
		}
		_ = w.Scatter(0, root)
	} else {
		_ = w.Scatter(0, nil)
	}
	// Point-to-point after the collectives: ffSeq alignment must survive.
	data = w.Shift(data, p-1)
	return nil
}

// TestEventBackendSplitIdentical runs collectives on subcommunicators so
// fast-forward rendezvous keys must separate memberships.
func TestEventBackendSplitIdentical(t *testing.T) {
	runSchedules(t, 8, unitCost, func(r *Rank) error {
		w := r.World()
		sub, err := w.Split(r.ID()%2, r.ID())
		if err != nil {
			return err
		}
		me := float64(r.ID())
		_ = sub.AllReduce([]float64{me, me}, OpSum)
		_ = sub.Bcast(0, []float64{me})
		_ = w.AllReduce([]float64{me}, OpMax)
		_ = sub.AllGather([]float64{me})
		w.Barrier()
		return nil
	})
}

// TestEventBackendMixedP2PAndCollectives interleaves point-to-point sends
// with collectives, including a message from the conductor-designate
// (member 0) that must not be mistaken for a rendezvous wake.
func TestEventBackendMixedP2PAndCollectives(t *testing.T) {
	runSchedules(t, 4, unitCost, func(r *Rank) error {
		w := r.World()
		if r.ID() == 0 {
			r.Compute(5)
			r.Send(3, []float64{7}) // lands while 3 may be parked in Bcast
		}
		got := w.Bcast(0, []float64{float64(r.ID())})
		if got[0] != 0 {
			return errors.New("bad bcast payload")
		}
		if r.ID() == 3 {
			if m := r.Recv(0); m[0] != 7 {
				return errors.New("bad p2p payload")
			}
		}
		w.Barrier()
		return nil
	})
}

func TestEventBackendDeadlockDetection(t *testing.T) {
	cost := unitCost
	_, err := Run(2, cost, func(r *Rank) error {
		// Both ranks wait on each other; nobody ever sends.
		r.Recv(1 - r.ID())
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if de.PeerExited {
		t.Error("plain deadlock misreported as peer exit")
	}
}

func TestEventBackendRecvFromExitedPeer(t *testing.T) {
	_, err := Run(2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1) // rank 1 exits cleanly without sending
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 receiving from rank 1, which exited without sending (clean exit") {
		t.Fatalf("exit cause not named: %v", err)
	}
}

func TestEventBackendSendToExitedPeer(t *testing.T) {
	cost := unitCost
	cost.ChanCap = 1
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1})
			r.Send(1, []float64{2}) // queue full, peer gone: must not hang
		}
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if !de.PeerExited {
		t.Error("send-to-exited not flagged PeerExited")
	}
}

func TestEventBackendRecvTimeout(t *testing.T) {
	runSchedules(t, 2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			// Nothing arrives from 1 until well past the deadline.
			got, out := r.RecvTimeout(1, 500)
			if out != RecvTimedOut || got != nil {
				return errors.New("expected RecvTimedOut")
			}
			if m, out2 := r.RecvTimeout(1, 10000); out2 != RecvOK || m[0] != 9 {
				return errors.New("expected late message to arrive")
			}
		} else {
			r.Compute(2000)
			r.Send(0, []float64{9})
		}
		return nil
	})
}

func TestEventBackendRecvTimeoutPeerExit(t *testing.T) {
	runSchedules(t, 2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			if _, out := r.RecvTimeout(1, 1e9); out != RecvPeerExited {
				return errors.New("expected RecvPeerExited")
			}
		}
		return nil
	})
}

func TestEventBackendSendTimeout(t *testing.T) {
	cost := unitCost
	cost.ChanCap = 1
	runSchedules(t, 2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			if out := r.SendTimeout(1, []float64{1}, 100); out != SendOK {
				return errors.New("first send must fit")
			}
			// Queue now full; rank 1 drains only after a long compute.
			if out := r.SendTimeout(1, []float64{2}, 100); out != SendTimedOut {
				return errors.New("expected SendTimedOut")
			}
			if out := r.SendTimeout(1, []float64{3}, 1e9); out != SendOK {
				return errors.New("expected eventual SendOK")
			}
		} else {
			r.Compute(50000)
			r.Recv(0)
			r.Recv(0)
		}
		return nil
	})
}

func TestEventBackendCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cost := unitCost
	cost.Context = ctx
	started := make(chan struct{})
	var once chan struct{} = started
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			if once != nil {
				close(once)
				once = nil
			}
			r.Recv(1) // blocks forever; only cancellation releases it
		} else {
			for {
				r.Compute(1)
			}
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
	}
}

// TestEventBackendFaultIdentity replays a seeded chaos plan — drops, dups,
// corruption, degradation, a respawned crash — on two schedules. The fault
// plan is a pure virtual-time state machine, so Results must match bitwise.
func TestEventBackendFaultIdentity(t *testing.T) {
	plan := &FaultPlan{
		Seed:       7,
		Crashes:    map[int]float64{1: 5000},
		Respawn:    true,
		RebootTime: 3,
		Links:      []LinkFault{{Src: -1, Dst: -1, DupProb: 0.3, CorruptProb: 0.2}},
		Degraded:   []DegradedLink{{Src: -1, Dst: -1, From: 2000, AlphaFactor: 2, BetaFactor: 3}},
	}
	cost := unitCost
	cost.Faults = plan
	runSchedules(t, 4, cost, func(r *Rank) error {
		w := r.World()
		data := []float64{float64(r.ID()), 1, 2}
		for step := 0; step < 5; step++ {
			r.Compute(500)
			data = w.Shift(data, 1)
			r.TakeCrashed()
		}
		w.Barrier()
		return nil
	})
}

// TestEventBackendWorkers checks that a multi-worker pool still yields the
// same deterministic result.
func TestEventBackendWorkers(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 2, 4} {
		cost := unitCost
		cost.Workers = workers
		res, err := Run(8, cost, collectiveTour)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
		}
		requireSameResult(t, "one worker", ref, fmt.Sprintf("%d workers", workers), res)
	}
}

// TestEventBackendObserverStream compares the per-rank observer event
// sequences between a one-worker and a four-worker schedule. Cross-rank
// interleaving is unordered by contract, so only the per-rank order is
// asserted.
func TestEventBackendObserverStream(t *testing.T) {
	record := func(workers int) map[int][]Segment {
		obs := newRecObs()
		cost := unitCost
		cost.Workers = workers
		cost.Observers = []Observer{obs}
		if _, err := Run(4, cost, collectiveTour); err != nil {
			t.Fatal(err)
		}
		return obs.segs
	}
	one := record(1)
	four := record(4)
	for rank := 0; rank < 4; rank++ {
		a, b := one[rank], four[rank]
		if len(a) != len(b) {
			t.Fatalf("rank %d: %d segments on one worker vs %d on four", rank, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("rank %d segment %d differs:\n  one worker:   %+v\n  four workers: %+v",
					rank, i, a[i], b[i])
			}
		}
	}
}

// TestEventBackendTracer makes sure Cost.Trace collects every rank's timeline.
func TestEventBackendTracer(t *testing.T) {
	cost := unitCost
	cost.Trace = true
	res, err := Run(2, cost, func(r *Rank) error {
		r.Compute(5)
		if r.ID() == 0 {
			r.Send(1, []float64{1})
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Segments) != 2 {
		t.Fatalf("trace missing: %+v", res.Trace)
	}
}

// TestEventBackendLargeRing is a smoke test at a size a scheduler that kept
// every rank live would already feel: a 4096-rank ring shift plus an
// AllReduce, fast-forwarded.
func TestEventBackendLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large ring skipped in -short")
	}
	cost := unitCost
	cost.GammaT = 1
	cost.AlphaT = 1e-6
	cost.BetaT = 1e-9
	res, err := Run(4096, cost, func(r *Rank) error {
		w := r.World()
		data := []float64{float64(r.ID())}
		data = w.Shift(data, 1)
		out := w.AllReduce(data, OpSum)
		want := float64(4096 * 4095 / 2)
		if out[0] != want {
			return errors.New("wrong AllReduce sum")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[0].Flops <= 0 {
		t.Errorf("rank 0 flops: %g", res.PerRank[0].Flops)
	}
}
