package sim

import (
	"testing"
	"time"
)

func TestRecvTimeoutDeliversEarlyMessage(t *testing.T) {
	// A message stamped below the deadline must be delivered with
	// accounting identical to a plain Recv.
	runWith := func(timed bool) (*Result, error) {
		return Run(2, unitCost, func(r *Rank) error {
			if r.ID() == 0 {
				r.Compute(1) // clock 1000·1? (unit cost) — just some advance
				r.Send(1, []float64{42})
				return nil
			}
			var data []float64
			if timed {
				var out RecvOutcome
				data, out = r.RecvTimeout(0, 1e12)
				if out != RecvOK {
					t.Errorf("expected RecvOK, got %v", out)
				}
			} else {
				data = r.Recv(0)
			}
			if data[0] != 42 {
				t.Errorf("payload %v, want [42]", data)
			}
			return nil
		})
	}
	timed, err := runWith(true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runWith(false)
	if err != nil {
		t.Fatal(err)
	}
	if timed.PerRank[1] != plain.PerRank[1] {
		t.Errorf("timed recv stats %+v differ from plain recv %+v", timed.PerRank[1], plain.PerRank[1])
	}
}

func TestRecvTimeoutExpiresAtQuiescence(t *testing.T) {
	// Rank 1's timed receive has no message coming until it times out:
	// rank 0 is itself blocked receiving, so the cluster goes quiescent
	// and quiescence must fire the timer instead of declaring deadlock.
	const rto = 3.5
	obs := newRecObs()
	cost := zeroCost
	cost.Observers = []Observer{obs}
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1)
			return nil
		}
		data, out := r.RecvTimeout(0, rto)
		if out != RecvTimedOut {
			t.Errorf("expected RecvTimedOut, got %v (data %v)", out, data)
		}
		r.Send(0, []float64{1})
		return nil
	})
	if err != nil {
		t.Fatalf("run must complete without a deadlock abort: %v", err)
	}
	if got := res.PerRank[1].WaitTime; got != rto {
		t.Errorf("expiry must account the full timeout as WaitTime: got %g, want %g", got, rto)
	}
	if got := res.PerRank[1].Time; got != rto {
		t.Errorf("clock must land exactly on the deadline: got %g, want %g", got, rto)
	}
	// Rank 0 inherits the post-timeout send stamp.
	if got := res.PerRank[0].WaitTime; got != rto {
		t.Errorf("rank 0 waits to the retransmit stamp: got %g, want %g", got, rto)
	}
	if len(obs.deadlocks) != 0 {
		t.Errorf("no deadlock events expected, got %d", len(obs.deadlocks))
	}
	fired, armed := 0, 0
	for _, ev := range obs.timers {
		if ev.Rank != 1 {
			continue
		}
		switch ev.Kind {
		case TimerArmed:
			armed++
		case TimerFired:
			fired++
			if ev.Deadline != rto || ev.Op != "recv" || ev.Peer != 0 {
				t.Errorf("fired event %+v, want deadline %g op recv peer 0", ev, rto)
			}
		}
	}
	if armed != 1 || fired != 1 {
		t.Errorf("want exactly one armed and one fired event for rank 1, got %d/%d", armed, fired)
	}
}

func TestRecvTimeoutLateStampPushesBack(t *testing.T) {
	// The sender's stamp is beyond the deadline, so the timed receive
	// expires — whatever the real-time interleaving — and the message
	// stays the FIFO head for the next plain Recv.
	cost := zeroCost
	cost.GammaT = 1 // 1 s per flop: Compute(5) stamps the send at 5
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(5)
			r.Send(1, []float64{7})
			return nil
		}
		data, out := r.RecvTimeout(0, 2)
		if out != RecvTimedOut {
			t.Errorf("stamp 5 must lose to deadline 2: got %v (data %v)", out, data)
		}
		if got := r.Clock(); got != 2 {
			t.Errorf("clock after expiry %g, want 2", got)
		}
		if got := r.Recv(0); got[0] != 7 {
			t.Errorf("pushed-back message must be the next head, got %v", got)
		}
		if got := r.Clock(); got != 5 {
			t.Errorf("clock after delivery %g, want the arrival stamp 5", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// WaitTime decomposes as 2 (expiry) + 3 (stamp 5 − clock 2).
	if got := res.PerRank[1].WaitTime; got != 5 {
		t.Errorf("rank 1 WaitTime %g, want 5", got)
	}
	if got := res.PerRank[1].WordsRecv; got != 1 {
		t.Errorf("exactly one word received, got %g", got)
	}
}

func TestRecvTimeoutPeerExited(t *testing.T) {
	_, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 0 {
			return nil // exits cleanly without sending
		}
		data, out := r.RecvTimeout(0, 1e6)
		if out != RecvPeerExited {
			t.Errorf("expected RecvPeerExited, got %v (data %v)", out, data)
		}
		exited, clean, perr := r.PeerExit(0)
		if !exited || !clean || perr != nil {
			t.Errorf("PeerExit(0) = %v/%v/%v, want true/true/nil", exited, clean, perr)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("a typed peer-exit outcome must not error the run: %v", err)
	}
}

func TestSendTimeoutExpiresOnFullBuffer(t *testing.T) {
	// Rank 0's second timed send can't enqueue (1-slot buffer, receiver
	// busy elsewhere); the cluster quiesces and the timer must expire the
	// send rather than deadlock the run.
	cost := zeroCost
	cost.ChanCap = 1
	res, err := Run(3, cost, func(r *Rank) error {
		switch r.ID() {
		case 0:
			if out := r.SendTimeout(1, []float64{1}, 2.5); out != SendOK {
				t.Errorf("first send must enqueue: %v", out)
			}
			if out := r.SendTimeout(1, []float64{2}, 2.5); out != SendTimedOut {
				t.Errorf("second send must time out: %v", out)
			}
			if got := r.Clock(); got != 2.5 {
				t.Errorf("clock after send expiry %g, want 2.5", got)
			}
			r.Send(2, []float64{9})
		case 1:
			if got := r.Recv(2); got[0] != 7 {
				t.Errorf("rank 1 first receives from 2, got %v", got)
			}
			if got := r.Recv(0); got[0] != 1 {
				t.Errorf("the enqueued copy is still delivered, got %v", got)
			}
		case 2:
			if got := r.Recv(0); got[0] != 9 {
				t.Errorf("rank 2 expects 9, got %v", got)
			}
			r.Send(1, []float64{7})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The timed-out copy is lost but paid for: two sends' worth of words.
	if got := res.PerRank[0].WordsSent; got != 3 {
		t.Errorf("rank 0 WordsSent %g, want 3 (two timed sends + one plain)", got)
	}
	if got := res.PerRank[1].WordsRecv; got != 2 {
		t.Errorf("rank 1 WordsRecv %g, want 2 (the lost copy never arrives)", got)
	}
}

func TestSendTimeoutPeerExited(t *testing.T) {
	// Buffer full and the receiver already gone: the timed send resolves
	// itself with SendPeerExited instead of waiting for the
	// send-to-exited abort.
	cost := zeroCost
	cost.ChanCap = 1
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 1 {
			return nil // exits without receiving
		}
		r.Send(1, []float64{1}) // fills the 1-slot buffer
		// Wait until the peer's exit is observable so the outcome is
		// fixed; PeerExit polls the same notification the send uses.
		for {
			if exited, _, _ := r.PeerExit(1); exited {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if out := r.SendTimeout(1, []float64{2}, 1e6); out != SendPeerExited {
			t.Errorf("expected SendPeerExited, got %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("timed send to an exited peer must not abort the run: %v", err)
	}
}

func TestWatchdogQuietDuringRetransmitBackoff(t *testing.T) {
	// Regression pin: a retransmit/backoff cycle — repeated timed
	// receives, each expiring at quiescence with a growing timeout — is
	// activity, and the engine must keep firing timers instead of ever
	// declaring the cluster deadlocked. Before timers, this program was
	// exactly the shape a deadlock verdict kills: every rank blocked, nothing
	// moving, for many windows in a row.
	obs := newRecObs()
	cost := zeroCost
	cost.Observers = []Observer{obs}
	const attempts = 5
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1) // blocked the whole time: no message until the cycle ends
			return nil
		}
		rto := 1.0
		for i := 0; i < attempts; i++ {
			if _, out := r.RecvTimeout(0, rto); out != RecvTimedOut {
				t.Errorf("attempt %d: expected RecvTimedOut, got %v", i, out)
			}
			rto *= 2 // exponential backoff
		}
		r.Send(0, []float64{1})
		return nil
	})
	if err != nil {
		t.Fatalf("backoff cycle must complete without a deadlock abort: %v", err)
	}
	if len(obs.deadlocks) != 0 {
		t.Fatalf("deadlock declared during a live backoff cycle: %d deadlock events", len(obs.deadlocks))
	}
	fired := 0
	for _, ev := range obs.timers {
		if ev.Kind == TimerFired {
			fired++
		}
	}
	if fired != attempts {
		t.Errorf("want %d fired timers, got %d", attempts, fired)
	}
	// 1+2+4+8+16 virtual seconds of backoff.
	if got := res.PerRank[1].WaitTime; got != 31 {
		t.Errorf("rank 1 WaitTime %g, want 31", got)
	}
}

func TestTimedRunsAreDeterministic(t *testing.T) {
	// A small stop-and-wait retransmit protocol over a lossy link: the
	// receiver nacks on expiry, the sender retransmits. Two runs must be
	// bitwise identical in every counter and in the timer event stream —
	// the property the single-fire-at-quiescence rule exists for.
	run := func() (*Result, []TimerEvent, error) {
		obs := newRecObs()
		cost := zeroCost
		cost.BetaT = 1e-3
		cost.AlphaT = 1e-2
		cost.Observers = []Observer{obs}
		cost.Faults = &FaultPlan{
			Seed:  7,
			Links: []LinkFault{{Src: 0, Dst: 1, DropProb: 0.45}, {Src: 2, Dst: 3, DropProb: 0.45}},
		}
		res, err := Run(4, cost, func(r *Rank) error {
			const rounds = 6
			switch r.ID() {
			case 0, 2:
				dst := r.ID() + 1
				for i := 0; i < rounds; i++ {
					r.Send(dst, []float64{float64(i)})
					for {
						ack := r.Recv(dst)
						if ack[0] == float64(i) {
							break // delivered
						}
						r.Send(dst, []float64{float64(i)}) // nacked: retransmit
					}
				}
			case 1, 3:
				src := r.ID() - 1
				for i := 0; i < rounds; i++ {
					for {
						data, out := r.RecvTimeout(src, 0.5)
						if out == RecvTimedOut {
							r.Send(src, []float64{-1}) // nack
							continue
						}
						if out != RecvOK {
							t.Errorf("rank %d round %d: outcome %v", r.ID(), i, out)
							return nil
						}
						if data[0] < float64(i) {
							continue // duplicate from a crossed retransmit: absorb
						}
						if data[0] != float64(i) {
							t.Errorf("rank %d round %d: payload %v", r.ID(), i, data)
							return nil
						}
						r.Send(src, []float64{float64(i)}) // ack
						break
					}
				}
			}
			return nil
		})
		var timers []TimerEvent
		timers = append(timers, obs.timers...)
		return res, timers, err
	}
	res1, tev1, err1 := run()
	res2, tev2, err2 := run()
	if err1 != nil || err2 != nil {
		t.Fatalf("runs failed: %v / %v", err1, err2)
	}
	for id := range res1.PerRank {
		if res1.PerRank[id] != res2.PerRank[id] {
			t.Errorf("rank %d stats differ between runs:\n  %+v\n  %+v", id, res1.PerRank[id], res2.PerRank[id])
		}
	}
	if len(tev1) != len(tev2) {
		t.Fatalf("timer event counts differ: %d vs %d", len(tev1), len(tev2))
	}
	// Per-rank timer streams are ordered; compare them rank by rank (the
	// global interleaving across ranks is scheduler-dependent).
	perRank := func(evs []TimerEvent) map[int][]TimerEvent {
		m := map[int][]TimerEvent{}
		for _, ev := range evs {
			m[ev.Rank] = append(m[ev.Rank], ev)
		}
		return m
	}
	m1, m2 := perRank(tev1), perRank(tev2)
	for rank, evs := range m1 {
		if len(evs) != len(m2[rank]) {
			t.Errorf("rank %d timer event counts differ: %d vs %d", rank, len(evs), len(m2[rank]))
			continue
		}
		for i := range evs {
			if evs[i] != m2[rank][i] {
				t.Errorf("rank %d timer event %d differs: %+v vs %+v", rank, i, evs[i], m2[rank][i])
			}
		}
	}
}
