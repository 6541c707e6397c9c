package sim

import (
	"math"
	"strings"
	"testing"
)

// zeroCost makes clock effects vanish so tests can focus on data movement.
var zeroCost = Cost{}

// unitCost gives every component a distinct magnitude so accounting errors
// show up unambiguously: 1 s/flop, 10 s/word, 1000 s/message.
var unitCost = Cost{GammaT: 1, BetaT: 10, AlphaT: 1000}

func TestNewClusterRejectsBadSizes(t *testing.T) {
	if _, err := NewCluster(0, zeroCost); err == nil {
		t.Error("p=0 must be rejected")
	}
	if _, err := NewCluster(-3, zeroCost); err == nil {
		t.Error("p<0 must be rejected")
	}
	if _, err := NewCluster(2, Cost{GammaT: -1}); err == nil {
		t.Error("negative costs must be rejected")
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	res, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1, 2, 3})
		} else {
			got := r.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
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
	if res.PerRank[1].WordsRecv != 3 || res.PerRank[1].MsgsRecv != 1 {
		t.Errorf("receiver counters: %+v", res.PerRank[1])
	}
}

func TestSendCopiesData(t *testing.T) {
	_, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 0 {
			buf := []float64{42}
			r.Send(1, buf)
			buf[0] = -1 // mutate after send; receiver must still see 42
			r.Send(1, buf)
		} else {
			first := r.Recv(0)
			if first[0] != 42 {
				t.Errorf("mutation after Send leaked: got %v", first[0])
			}
			second := r.Recv(0)
			if second[0] != -1 {
				t.Errorf("second message wrong: got %v", second[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockSendCost(t *testing.T) {
	res, err := Run(2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, make([]float64, 5)) // 1000 + 5*10 = 1050
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].Time; got != 1050 {
		t.Errorf("sender clock: got %g want 1050", got)
	}
	// Receiver waits for arrival: its clock equals the sender's post-send
	// clock (receive itself is not double-charged).
	if got := res.PerRank[1].Time; got != 1050 {
		t.Errorf("receiver clock: got %g want 1050", got)
	}
}

func TestClockComputeCost(t *testing.T) {
	res, err := Run(1, unitCost, func(r *Rank) error {
		r.Compute(7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[0].Time != 7 || res.PerRank[0].Flops != 7 {
		t.Errorf("stats: %+v", res.PerRank[0])
	}
}

func TestClockRecvWaitsForSender(t *testing.T) {
	// Rank 0 computes 100s then sends; rank 1 computes 1s then receives.
	// Rank 1's clock must jump to the arrival time.
	res, err := Run(2, Cost{GammaT: 1}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(100)
			r.Send(1, []float64{1})
		} else {
			r.Compute(1)
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[1].Time; got != 100 {
		t.Errorf("receiver should wait until t=100, got %g", got)
	}
}

func TestClockRecvDoesNotRewind(t *testing.T) {
	// Receiver is already past the arrival time: clock must not go back.
	res, err := Run(2, Cost{GammaT: 1}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1})
		} else {
			r.Compute(500)
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[1].Time; got != 500 {
		t.Errorf("receiver clock must stay at 500, got %g", got)
	}
}

func TestMaxMessageSplitting(t *testing.T) {
	cost := Cost{AlphaT: 100, BetaT: 1, MaxMsgWords: 10}
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, make([]float64, 25)) // 3 messages of <=10 words
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].MsgsSent; got != 3 {
		t.Errorf("25 words with m=10 should cost 3 messages, got %g", got)
	}
	if got := res.PerRank[1].MsgsRecv; got != 3 {
		t.Errorf("receiver must count the same 3 network messages, got %g", got)
	}
	if got := res.PerRank[0].Time; got != 3*100+25 {
		t.Errorf("send time: got %g want 325", got)
	}
}

func TestZeroWordMessageCostsOneLatency(t *testing.T) {
	res, err := Run(2, Cost{AlphaT: 7}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, nil)
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].Time; got != 7 {
		t.Errorf("zero-word send should cost one latency, got %g", got)
	}
}

func TestRingShiftCostsOneStep(t *testing.T) {
	// A full cyclic shift among p ranks costs a single alpha + k*beta in
	// virtual time because sends are posted before receives.
	const p = 8
	const k = 4
	res, err := Run(p, unitCost, func(r *Rank) error {
		w := r.World()
		data := make([]float64, k)
		for i := range data {
			data[i] = float64(r.ID())
		}
		got := w.Shift(data, 1)
		want := float64((r.ID() - 1 + p) % p)
		if got[0] != want {
			t.Errorf("rank %d: shift got %g want %g", r.ID(), got[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := unitCost.AlphaT + unitCost.BetaT*float64(k)
	if got := res.Time(); got != want {
		t.Errorf("shift step time: got %g want %g", got, want)
	}
}

func TestSelfSend(t *testing.T) {
	_, err := Run(1, zeroCost, func(r *Rank) error {
		r.Send(0, []float64{9})
		got := r.Recv(0)
		if got[0] != 9 {
			t.Errorf("self-send got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicClocks(t *testing.T) {
	// The same program must yield bit-identical clocks across runs,
	// regardless of scheduling.
	run := func() []float64 {
		res, err := Run(16, unitCost, func(r *Rank) error {
			w := r.World()
			data := []float64{float64(r.ID())}
			for s := 0; s < 5; s++ {
				data = w.Shift(data, 1+s)
				r.Compute(float64(r.ID()%3) * 10)
			}
			w.AllReduce(data, OpSum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, len(res.PerRank))
		for i, s := range res.PerRank {
			times[i] = s.Time
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d clock not deterministic: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRankErrorPropagates(t *testing.T) {
	_, err := Run(4, zeroCost, func(r *Rank) error {
		if r.ID() == 2 {
			return errTest
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("expected rank 2 error, got %v", err)
	}
}

type testErr struct{}

func (testErr) Error() string { return "boom" }

var errTest = testErr{}

func TestRankPanicRecovered(t *testing.T) {
	_, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic should surface as error, got %v", err)
	}
}

func TestRecvFromExitedRankFails(t *testing.T) {
	// Rank 0 exits without sending; rank 1's Recv must turn into an error,
	// not a deadlock.
	_, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 1 {
			r.Recv(0)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exited without sending") {
		t.Errorf("expected exited-peer error, got %v", err)
	}
}

func TestMemoryTracking(t *testing.T) {
	res, err := Run(1, zeroCost, func(r *Rank) error {
		r.Alloc(100)
		r.Alloc(50) // peak 150
		r.Free(100) // down to 50
		r.Alloc(60) // 110 < peak
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].PeakMemWords; got != 150 {
		t.Errorf("peak memory: got %g want 150", got)
	}
}

func TestFreeUnderflowPanics(t *testing.T) {
	_, err := Run(1, zeroCost, func(r *Rank) error {
		r.Free(1)
		return nil
	})
	if err == nil {
		t.Error("freeing more than allocated should error")
	}
}

func TestInvalidDestinationPanics(t *testing.T) {
	_, err := Run(1, zeroCost, func(r *Rank) error {
		r.Send(5, nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Errorf("expected invalid-rank error, got %v", err)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	_, err := Run(1, zeroCost, func(r *Rank) error {
		r.Compute(-1)
		return nil
	})
	if err == nil {
		t.Error("negative flops should error")
	}
}

func TestResultAggregates(t *testing.T) {
	res, err := Run(3, Cost{GammaT: 1}, func(r *Rank) error {
		r.Compute(float64(r.ID()) * 10)
		r.Alloc(int(r.ID()) * 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	maxS := res.MaxStats()
	if maxS.Flops != 20 || maxS.PeakMemWords != 10 || maxS.Time != 20 {
		t.Errorf("MaxStats: %+v", maxS)
	}
	totS := res.TotalStats()
	if totS.Flops != 30 || totS.PeakMemWords != 15 {
		t.Errorf("TotalStats: %+v", totS)
	}
	if res.Time() != 20 {
		t.Errorf("Time: got %g want 20", res.Time())
	}
}

func TestFIFOOrderingPerPair(t *testing.T) {
	_, err := Run(2, zeroCost, func(r *Rank) error {
		const n = 50
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got := r.Recv(0)
				if got[0] != float64(i) {
					t.Errorf("message %d out of order: got %g", i, got[0])
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsSnapshotIncludesTime(t *testing.T) {
	_, err := Run(1, Cost{GammaT: 2}, func(r *Rank) error {
		r.Compute(5)
		s := r.Stats()
		if s.Time != 10 {
			t.Errorf("snapshot time: got %g want 10", s.Time)
		}
		if r.Clock() != 10 {
			t.Errorf("Clock: got %g want 10", r.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadImbalanceShowsInMaxTime(t *testing.T) {
	res, err := Run(4, Cost{GammaT: 1}, func(r *Rank) error {
		if r.ID() == 3 {
			r.Compute(1000)
		} else {
			r.Compute(10)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time() != 1000 {
		t.Errorf("runtime must be the slowest rank: got %g", res.Time())
	}
}

func TestSendRecvOverlap(t *testing.T) {
	// Pairwise exchange: both ranks SendRecv simultaneously; total time is
	// one message, not two.
	res, err := Run(2, Cost{AlphaT: 100, BetaT: 1}, func(r *Rank) error {
		other := 1 - r.ID()
		got := r.SendRecv(other, []float64{float64(r.ID())}, other)
		if got[0] != float64(other) {
			t.Errorf("rank %d: got %g", r.ID(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Time(); got != 101 {
		t.Errorf("pairwise exchange should cost one message (101), got %g", got)
	}
}

func TestClockNeverDecreases(t *testing.T) {
	_, err := Run(4, unitCost, func(r *Rank) error {
		w := r.World()
		prev := 0.0
		check := func() {
			if r.Clock() < prev {
				t.Errorf("rank %d clock went backwards: %g -> %g", r.ID(), prev, r.Clock())
			}
			prev = r.Clock()
		}
		for i := 0; i < 3; i++ {
			r.Compute(float64(i))
			check()
			w.Shift([]float64{1}, 1)
			check()
			w.AllReduce(nil, OpSum)
			check()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBigFanInClock(t *testing.T) {
	// All ranks send to rank 0; rank 0's final clock is at least the cost
	// of receiving p-1 messages sequentially under FIFO arrival order is
	// not required — but it must be at least the latest arrival.
	const p = 5
	res, err := Run(p, Cost{AlphaT: 10, GammaT: 1}, func(r *Rank) error {
		if r.ID() == 0 {
			for src := 1; src < p; src++ {
				r.Recv(src)
			}
		} else {
			r.Compute(float64(r.ID()) * 100) // staggered send times
			r.Send(0, []float64{1})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latest sender: rank 4 computes 400 then sends (+10) => arrival 410.
	if got := res.PerRank[0].Time; got != 410 {
		t.Errorf("fan-in clock: got %g want 410", got)
	}
	_ = math.Inf // keep math imported if unused elsewhere
}
