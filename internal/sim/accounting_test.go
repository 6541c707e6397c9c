package sim

import (
	"math"
	"testing"
)

func TestMessagesForEdgeCases(t *testing.T) {
	cases := []struct {
		maxMsgWords int
		k           int
		want        float64
	}{
		{0, 0, 1},       // zero-word message, unlimited m: one latency
		{0, 1 << 20, 1}, /* unlimited m: always one message */
		{64, 0, 1},      // zero-word message still costs one latency
		{64, 1, 1},
		{64, 63, 1},
		{64, 64, 1},  // exactly divisible: no extra message
		{64, 65, 2},  // one word over: second message
		{64, 128, 2}, // exactly two messages
		{64, 129, 3},
		{1, 5, 5}, // degenerate m=1: one message per word
	}
	for _, tc := range cases {
		c := &Cluster{cost: Cost{MaxMsgWords: tc.maxMsgWords}}
		if got := c.messagesFor(tc.k); got != tc.want {
			t.Errorf("messagesFor(k=%d, m=%d) = %g, want %g", tc.k, tc.maxMsgWords, got, tc.want)
		}
	}
}

// TestMessageCountersSymmetricPerPair pins the send/recv accounting fix:
// the receiver counts the same ⌈k/m⌉ network messages per transfer as the
// sender, so for every MaxMsgWords the two ends of a pair agree exactly.
// Before the fix Recv counted one message per call, and any m > 0 with
// k > m made MsgsRecv < MsgsSent for the same traffic.
func TestMessageCountersSymmetricPerPair(t *testing.T) {
	const p = 4
	const k = 23 // odd payload: ⌈23/7⌉ = 4, ⌈23/1⌉ = 23
	wantMsgs := map[int]float64{
		0: 1 + 1,  // unlimited m: one message each for the k-word and 0-word sends
		1: 23 + 1, // m=1: one message per word
		7: 4 + 1,  // ⌈23/7⌉ + the zero-word message
	}
	for m, want := range wantMsgs {
		cost := Cost{AlphaT: 1, BetaT: 1, MaxMsgWords: m}
		res, err := Run(p, cost, func(r *Rank) error {
			next := (r.ID() + 1) % p
			prev := (r.ID() - 1 + p) % p
			r.Send(next, make([]float64, k))
			r.Recv(prev)
			r.Send(next, nil)
			r.Recv(prev)
			return nil
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for id, s := range res.PerRank {
			if s.MsgsSent != s.MsgsRecv || s.WordsSent != s.WordsRecv {
				t.Errorf("m=%d rank %d: sent (W=%g, S=%g) != recv (W=%g, S=%g)",
					m, id, s.WordsSent, s.MsgsSent, s.WordsRecv, s.MsgsRecv)
			}
			if s.MsgsSent != want {
				t.Errorf("m=%d rank %d: MsgsSent = %g, want %g", m, id, s.MsgsSent, want)
			}
		}
	}

	// Directed pair: the sender's count must land on the receiver's side.
	res, err := Run(2, Cost{MaxMsgWords: 7}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, make([]float64, k))
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, rcv := res.PerRank[0], res.PerRank[1]; s.MsgsSent != rcv.MsgsRecv || rcv.MsgsRecv != 4 {
		t.Errorf("directed pair: MsgsSent %g vs MsgsRecv %g (want 4)", s.MsgsSent, rcv.MsgsRecv)
	}
}

// TestChargeReceiverDegradedPricesBothEndsEqually pins the fault-pricing
// fix: under ChargeReceiver, the receive is priced with the same
// degraded-window factors the send paid — even when the receiver's own
// clock has long left the window — so the two ends of one transfer never
// disagree. Before the fix the receiver charged undegraded α/β.
func TestChargeReceiverDegradedPricesBothEndsEqually(t *testing.T) {
	const k = 4
	plan := &FaultPlan{Degraded: []DegradedLink{{
		Src: -1, Dst: -1, From: 0, Until: 10,
		AlphaFactor: 5, BetaFactor: 7,
	}}}
	cost := Cost{GammaT: 1, AlphaT: 2, BetaT: 3, ChargeReceiver: true, Faults: plan}
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, make([]float64, k)) // clock 0: inside [0, 10)
		} else {
			r.Compute(50) // the receiver's clock leaves the window first
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0*2*1 + 7.0*3*k // degraded α·1 + degraded β·k = 94
	if got := res.PerRank[0].SendTime; got != want {
		t.Errorf("degraded send: got %g want %g", got, want)
	}
	if got := res.PerRank[1].RecvTime; got != want {
		t.Errorf("degraded receive must match the send price: got %g want %g", got, want)
	}

	// Outside any window the factors are 1 and both ends still agree.
	res, err = Run(2, Cost{AlphaT: 2, BetaT: 3, ChargeReceiver: true, Faults: plan,
		GammaT: 1}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(20) // clock 20 ≥ 10: past the window
			r.Send(1, make([]float64, k))
		} else {
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	clean := 2.0*1 + 3.0*k
	if got := res.PerRank[1].RecvTime; got != clean {
		t.Errorf("clean receive: got %g want %g", got, clean)
	}
	if res.PerRank[0].SendTime != res.PerRank[1].RecvTime {
		t.Errorf("ends disagree: send %g recv %g", res.PerRank[0].SendTime, res.PerRank[1].RecvTime)
	}
}

// TestStatsDecompositionInvariant pins ComputeTime + SendTime + RecvTime +
// WaitTime == Time for every rank under the accounting variants that touch
// the decomposition: ChargeReceiver and per-link costs.
func TestStatsDecompositionInvariant(t *testing.T) {
	costs := map[string]Cost{
		"base": {GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 16},
		"chargeReceiver": {
			GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 16,
			ChargeReceiver: true,
		},
		"perLink": {
			GammaT: 1e-9, ChargeReceiver: true,
			Links: TwoLevelLinks{CoresPerNode: 2, IntraAlpha: 1e-7, IntraBeta: 1e-9, InterAlpha: 1e-5, InterBeta: 1e-8},
		},
	}
	for name, cost := range costs {
		res, err := Run(4, cost, func(r *Rank) error {
			w := r.World()
			data := make([]float64, 37) // not a multiple of MaxMsgWords
			for i := range data {
				data[i] = float64(r.ID() + i)
			}
			for step := 0; step < 3; step++ {
				r.Compute(float64(1000 * (r.ID() + 1))) // imbalanced: creates waits
				data = w.Shift(data, 1)
			}
			w.AllReduce(data, OpSum)
			w.AllReduce(nil, OpSum)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for id, s := range res.PerRank {
			sum := s.ComputeTime + s.SendTime + s.RecvTime + s.WaitTime
			if math.Abs(sum-s.Time) > 1e-12*math.Max(1, math.Abs(s.Time)) {
				t.Errorf("%s rank %d: decomposition %g != Time %g (%+v)", name, id, sum, s.Time, s)
			}
			if !cost.ChargeReceiver && s.RecvTime != 0 {
				t.Errorf("%s rank %d: RecvTime must be zero without ChargeReceiver, got %g", name, id, s.RecvTime)
			}
			if cost.ChargeReceiver && s.RecvTime == 0 {
				t.Errorf("%s rank %d: RecvTime must be positive under ChargeReceiver", name, id)
			}
		}
	}
}
