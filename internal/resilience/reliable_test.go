package resilience_test

import (
	"testing"

	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// testCost gives the runs a virtual clock.
func testCost() sim.Cost {
	return sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
}

func TestReliableDeliversInOrder(t *testing.T) {
	const msgs = 10
	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		rel := resilience.NewReliable(r)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				rel.Send(1, []float64{float64(i), float64(2 * i)})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got := rel.Recv(0)
			if len(got) != 2 || got[0] != float64(i) || got[1] != float64(2*i) {
				t.Errorf("message %d mangled: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReliableMasksCorruption(t *testing.T) {
	const msgs = 20
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed: 11,
		// Corrupt only the data direction; the protocol documents that the
		// ack direction must stay clean.
		Links: []sim.LinkFault{{Src: 0, Dst: 1, CorruptProb: 0.5}},
	}
	res, err := sim.Run(2, cost, func(r *sim.Rank) error {
		rel := resilience.NewReliable(r)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				rel.Send(1, []float64{float64(i), 100 + float64(i)})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got := rel.Recv(0)
			if got[0] != float64(i) || got[1] != 100+float64(i) {
				t.Errorf("corrupted payload leaked through: message %d = %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Retransmissions must show up in the counters: strictly more sender
	// messages than the msgs data packets + msgs·0 acks it sends itself.
	if got := res.PerRank[0].MsgsSent; got <= msgs {
		t.Errorf("expected retransmissions beyond %d packets, counted %g", msgs, got)
	}
}

func TestReliableMasksDuplication(t *testing.T) {
	const msgs = 5
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  3,
		Links: []sim.LinkFault{{Src: -1, Dst: -1, DupProb: 1}},
	}
	_, err := sim.Run(2, cost, func(r *sim.Rank) error {
		rel := resilience.NewReliable(r)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				rel.Send(1, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if got := rel.Recv(0); got[0] != float64(i) {
				t.Errorf("duplicate reordered the stream: message %d = %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReliableCorruptionIsDeterministic(t *testing.T) {
	run := func() sim.Stats {
		cost := testCost()
		cost.Faults = &sim.FaultPlan{
			Seed:  42,
			Links: []sim.LinkFault{{Src: 0, Dst: 1, CorruptProb: 0.5, DupProb: 0.25}},
		}
		res, err := sim.Run(2, cost, func(r *sim.Rank) error {
			rel := resilience.NewReliable(r)
			if r.ID() == 0 {
				for i := 0; i < 10; i++ {
					rel.Send(1, []float64{float64(i), float64(i * i)})
				}
				return nil
			}
			for i := 0; i < 10; i++ {
				rel.Recv(0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRank[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("retry traffic must be byte-identical across runs:\n%+v\n%+v", a, b)
	}
}
