package sim

import (
	"testing"
)

func TestTwoLevelLinksClassification(t *testing.T) {
	l := TwoLevelLinks{CoresPerNode: 4, IntraAlpha: 1, IntraBeta: 2, InterAlpha: 10, InterBeta: 20}
	if l.node(3) != 0 || l.node(4) != 1 {
		t.Error("node mapping wrong")
	}
	// Intra-node pair.
	if l.Latency(0, 3) != 1 || l.TimePerWord(0, 3) != 2 {
		t.Error("intra-node link parameters wrong")
	}
	// Inter-node pair.
	if l.Latency(0, 4) != 10 || l.TimePerWord(3, 4) != 20 {
		t.Error("inter-node link parameters wrong")
	}
}

func TestTwoLevelLinksAffectClock(t *testing.T) {
	l := TwoLevelLinks{CoresPerNode: 2, IntraAlpha: 1, IntraBeta: 0, InterAlpha: 100, InterBeta: 0}
	res, err := Run(4, Cost{Links: l}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, []float64{1}) // intra: 1
			r.Send(2, []float64{1}) // inter: +100
		case 1:
			r.Recv(0)
		case 2:
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].Time; got != 101 {
		t.Errorf("sender clock: got %g want 101", got)
	}
	if got := res.PerRank[1].Time; got != 1 {
		t.Errorf("intra receiver clock: got %g want 1", got)
	}
	if got := res.PerRank[2].Time; got != 101 {
		t.Errorf("inter receiver clock: got %g want 101", got)
	}
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	tor := Torus3DLinks{X: 2, Y: 3, Z: 4}
	for rank := 0; rank < 24; rank++ {
		x, y, z := tor.Coords(rank)
		if x+tor.X*(y+tor.Y*z) != rank {
			t.Fatalf("coords round trip failed for %d", rank)
		}
	}
}

func TestTorusHops(t *testing.T) {
	tor := Torus3DLinks{X: 4, Y: 4, Z: 4, AlphaPerHop: 1}
	// Neighbors: 1 hop.
	if got := tor.Hops(0, 1); got != 1 {
		t.Errorf("neighbor hops: got %d", got)
	}
	// Wraparound: 0 -> 3 in a ring of 4 is 1 hop.
	if got := tor.Hops(0, 3); got != 1 {
		t.Errorf("wraparound hops: got %d", got)
	}
	// Opposite corner: 2+2+2 = 6 hops.
	opposite := 2 + 4*(2+4*2)
	if got := tor.Hops(0, opposite); got != 6 {
		t.Errorf("diagonal hops: got %d want 6", got)
	}
	// Self-message still costs one hop.
	if got := tor.Hops(5, 5); got != 1 {
		t.Errorf("self hops: got %d want 1", got)
	}
	if tor.Latency(0, opposite) != 6 {
		t.Error("latency should scale with hops")
	}
	if tor.TimePerWord(0, opposite) != 0 {
		t.Error("torus beta should be uniform (zero here)")
	}
}

func TestRingDist(t *testing.T) {
	cases := []struct{ a, b, n, want int }{
		{0, 0, 8, 0}, {0, 1, 8, 1}, {0, 7, 8, 1}, {0, 4, 8, 4}, {1, 6, 8, 3},
	}
	for _, c := range cases {
		if got := ringDist(c.a, c.b, c.n); got != c.want {
			t.Errorf("ringDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.n, got, c.want)
		}
	}
}

func TestChargeReceiverDoublesExchange(t *testing.T) {
	// A pairwise exchange costs one step under the default accounting and
	// two under ChargeReceiver.
	base := Cost{AlphaT: 100, BetaT: 1}
	charged := base
	charged.ChargeReceiver = true
	run := func(c Cost) float64 {
		res, err := Run(2, c, func(r *Rank) error {
			other := 1 - r.ID()
			r.SendRecv(other, []float64{1}, other)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time()
	}
	t1, t2 := run(base), run(charged)
	if t1 != 101 {
		t.Errorf("default exchange: got %g want 101", t1)
	}
	if t2 != 202 {
		t.Errorf("charged exchange: got %g want 202", t2)
	}
}

func TestChargeReceiverPreservesScalingShape(t *testing.T) {
	// The DESIGN.md ablation claim: charging both sides changes constants,
	// not shapes. A ring shift pipeline under both accountings must scale
	// identically with message count.
	shiftTime := func(c Cost, steps int) float64 {
		res, err := Run(4, c, func(r *Rank) error {
			w := r.World()
			data := []float64{1, 2}
			for s := 0; s < steps; s++ {
				data = w.Shift(data, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time()
	}
	base := Cost{AlphaT: 5, BetaT: 1}
	charged := base
	charged.ChargeReceiver = true
	r1 := shiftTime(base, 8) / shiftTime(base, 4)
	r2 := shiftTime(charged, 8) / shiftTime(charged, 4)
	if r1 != r2 {
		t.Errorf("scaling ratios differ: %g vs %g", r1, r2)
	}
	if got := shiftTime(charged, 4) / shiftTime(base, 4); got != 2 {
		t.Errorf("constant factor should be exactly 2, got %g", got)
	}
}

func TestTorusLinksInSimulation(t *testing.T) {
	// A message across the torus diameter takes longer than to a neighbor.
	tor := Torus3DLinks{X: 4, Y: 4, Z: 1, AlphaPerHop: 10, BetaPerWord: 0}
	res, err := Run(16, Cost{Links: tor}, func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, []float64{1})  // 1 hop: 10
			r.Send(10, []float64{1}) // (2,2,0): 2+2 hops: +40
		case 1:
			r.Recv(0)
		case 10:
			r.Recv(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[1].Time; got != 10 {
		t.Errorf("neighbor arrival: got %g want 10", got)
	}
	if got := res.PerRank[10].Time; got != 50 {
		t.Errorf("diagonal arrival: got %g want 50", got)
	}
}

func TestPlacedLinksCompose(t *testing.T) {
	tor := Torus3DLinks{X: 2, Y: 2, Z: 1, AlphaPerHop: 10, BetaPerWord: 1}
	// Swap ranks 0 and 3: logical 0<->1 becomes physical 3<->1.
	place := []int{3, 1, 2, 0}
	pl := PlacedLinks{Base: tor, Place: place}
	if got, want := pl.Latency(0, 1), tor.Latency(3, 1); got != want {
		t.Errorf("placed latency %g want %g", got, want)
	}
	if got, want := pl.TimePerWord(2, 3), tor.TimePerWord(2, 0); got != want {
		t.Errorf("placed beta %g want %g", got, want)
	}
}

func TestGridToTorusPlacement(t *testing.T) {
	g, err := NewGrid3D(4, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	tor := Torus3DLinks{X: 4, Y: 4, Z: 2, AlphaPerHop: 1}
	place, err := GridToTorusPlacement(g, tor)
	if err != nil {
		t.Fatal(err)
	}
	// Every physical node is used at most once.
	seen := map[int]bool{}
	for _, node := range place {
		if seen[node] {
			t.Fatal("placement collides")
		}
		seen[node] = true
	}
	// Grid row neighbors are torus neighbors.
	a := g.RankAt(1, 0, 0)
	b := g.RankAt(1, 1, 0)
	if tor.Hops(place[a], place[b]) != 1 {
		t.Error("row neighbors should be 1 torus hop apart")
	}
	// Fiber neighbors too.
	c := g.RankAt(2, 3, 0)
	d := g.RankAt(2, 3, 1)
	if tor.Hops(place[c], place[d]) != 1 {
		t.Error("fiber neighbors should be 1 torus hop apart")
	}
	// Too-small torus rejected.
	if _, err := GridToTorusPlacement(g, Torus3DLinks{X: 2, Y: 4, Z: 2}); err == nil {
		t.Error("non-embedding grid should be rejected")
	}
}
