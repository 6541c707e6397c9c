package nbody

import (
	"math"
	"strings"
	"testing"

	"perfscale/internal/sim"
)

var zeroCost = sim.Cost{}

func TestBodiesAccessors(t *testing.T) {
	b := RandomBodies(10, 1)
	if b.N() != 10 {
		t.Fatalf("N: %d", b.N())
	}
	x, y, z, m := b.Body(3)
	if x != b[12] || y != b[13] || z != b[14] || m != b[15] {
		t.Error("Body accessor layout wrong")
	}
	if m < 0.5 || m >= 1.5 {
		t.Errorf("mass %g outside [0.5, 1.5)", m)
	}
}

func TestRandomBodiesDeterministic(t *testing.T) {
	a := RandomBodies(5, 42)
	b := RandomBodies(5, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should give same bodies")
		}
	}
}

func TestSerialForcesTwoBodySymmetry(t *testing.T) {
	// Two equal masses on the x axis attract each other equally and
	// oppositely (per unit mass, with equal masses).
	b := Bodies{0, 0, 0, 1, 1, 0, 0, 1}
	f := SerialForces(b)
	if f[0] <= 0 {
		t.Errorf("body 0 should be pulled toward +x, got %g", f[0])
	}
	if math.Abs(f[0]+f[3]) > 1e-12 {
		t.Errorf("forces should be opposite: %g vs %g", f[0], f[3])
	}
	if f[1] != 0 || f[2] != 0 || f[4] != 0 || f[5] != 0 {
		t.Error("off-axis force components should vanish")
	}
}

func TestSerialForcesMassScaling(t *testing.T) {
	// Doubling the source mass doubles the force on the target.
	b1 := Bodies{0, 0, 0, 1, 1, 0, 0, 1}
	b2 := Bodies{0, 0, 0, 1, 1, 0, 0, 2}
	f1 := SerialForces(b1)
	f2 := SerialForces(b2)
	if math.Abs(f2[0]-2*f1[0]) > 1e-12 {
		t.Errorf("force should scale with source mass: %g vs 2·%g", f2[0], f1[0])
	}
}

func TestAccumulateForcesPairCount(t *testing.T) {
	a := RandomBodies(4, 1)
	b := RandomBodies(6, 2)
	dst := make([]float64, 12)
	if pairs := AccumulateForces(dst, a, b, false); pairs != 24 {
		t.Errorf("pairs: got %d want 24", pairs)
	}
	dst = make([]float64, 12)
	if pairs := AccumulateForces(dst, a, a[:4*WordsPerBody], true); pairs != 12 {
		t.Errorf("self pairs: got %d want 4·3 = 12", pairs)
	}
}

func TestAccumulateForcesBadDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short dst should panic")
		}
	}()
	AccumulateForces(make([]float64, 2), RandomBodies(4, 1), RandomBodies(4, 2), false)
}

func TestReplicatedMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ n, p, c int }{
		{16, 4, 1},
		{16, 4, 2},  // k=2, c=2: c | k fails? k=2, c=2 ok (2|2): steps=1
		{32, 8, 2},  // k=4, steps=2
		{32, 16, 4}, // k=4, steps=1: 2D limit
		{24, 6, 1},
		{64, 16, 2}, // k=8, steps=4
	} {
		bodies := RandomBodies(tc.n, int64(tc.n+tc.p))
		want := SerialForces(bodies)
		got, err := Replicated(zeroCost, tc.p, tc.c, bodies)
		if err != nil {
			t.Fatalf("n=%d p=%d c=%d: %v", tc.n, tc.p, tc.c, err)
		}
		if d := MaxAbsDiff(got.Forces, want); d > 1e-9 {
			t.Errorf("n=%d p=%d c=%d: max force diff %g", tc.n, tc.p, tc.c, d)
		}
	}
}

func TestReplicatedValidation(t *testing.T) {
	bodies := RandomBodies(16, 1)
	for _, tc := range []struct {
		p, c int
		why  string
	}{
		{6, 4, "c not dividing p"},
		{27, 3, "c=3, k=9: 16 bodies not divisible by ring size 9"},
		{8, 0, "c=0"},
		{18, 3, "c=3, k=6: 3|6 holds but 16 % 6 != 0"},
		{0, 1, "p=0"},
		{-1, 1, "p=-1"},
	} {
		_, err := Replicated(zeroCost, tc.p, tc.c, bodies)
		if err == nil || !strings.HasPrefix(err.Error(), "nbody: ") {
			t.Errorf("p=%d c=%d (%s): err = %v, want an nbody: error", tc.p, tc.c, tc.why, err)
		}
	}
	if _, err := Replicated(zeroCost, 8, 2, bodies); err != nil {
		t.Errorf("p=8 c=2 (k=4, 2|4, 16%%4=0) should be accepted: %v", err)
	}
}

func TestReplicatedFlopBalance(t *testing.T) {
	const n, p = 32, 8
	bodies := RandomBodies(n, 3)
	res, err := Replicated(zeroCost, p, 2, bodies)
	if err != nil {
		t.Fatal(err)
	}
	// Total interaction flops: n(n-1) ordered pairs × FlopsPerPair, plus
	// reduction additions.
	wantPairs := float64(n * (n - 1) * FlopsPerPair)
	got := res.Sim.TotalStats().Flops
	if got < wantPairs || got > wantPairs*1.2 {
		t.Errorf("total flops %g, want ≥ %g (pairs) and < 1.2x", got, wantPairs)
	}
	// Balance: max ≈ total/p within the reduction slack.
	maxF := res.Sim.MaxStats().Flops
	if maxF > got/p*1.3 {
		t.Errorf("imbalanced flops: max %g vs avg %g", maxF, got/float64(p))
	}
}

func TestReplicationReducesWords(t *testing.T) {
	// Fixed p = 16: c = 1, 2, 4 — words per rank should fall as replication
	// rises (W = n²/(p·M), M = c·n/p).
	const n = 64
	bodies := RandomBodies(n, 5)
	words := map[int]float64{}
	for _, c := range []int{1, 2, 4} {
		res, err := Replicated(zeroCost, 16, c, bodies)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		words[c] = res.Sim.MaxStats().WordsSent
	}
	if !(words[2] < words[1]) || !(words[4] < words[2]) {
		t.Errorf("words should fall with c: %v", words)
	}
}

func TestReplicationRaisesMemory(t *testing.T) {
	const n = 64
	bodies := RandomBodies(n, 5)
	mem := map[int]float64{}
	for _, c := range []int{1, 2, 4} {
		res, err := Replicated(zeroCost, 16, c, bodies)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		mem[c] = res.Sim.MaxStats().PeakMemWords
	}
	// M = Θ(c·n/p): doubling c doubles the tracked footprint.
	if !(mem[2] > mem[1]) || !(mem[4] > mem[2]) {
		t.Errorf("memory should grow with c: %v", mem)
	}
	if mem[2] != 2*mem[1] || mem[4] != 2*mem[2] {
		t.Errorf("memory should double with c: %v", mem)
	}
}

func TestPerfectStrongScalingTime(t *testing.T) {
	// Experiment E6 (simulator side): p = c·pmin with fixed per-rank block
	// size; simulated time should fall ≈ c.
	cost := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}
	const n = 256
	bodies := RandomBodies(n, 9)
	// k = 8 constant => block size constant; p = 8, 16, 32 via c = 1, 2, 4.
	t1, err := Replicated(cost, 8, 1, bodies)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Replicated(cost, 16, 2, bodies)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Replicated(cost, 32, 4, bodies)
	if err != nil {
		t.Fatal(err)
	}
	s2 := t1.Sim.Time() / t2.Sim.Time()
	s4 := t1.Sim.Time() / t4.Sim.Time()
	if s2 < 1.6 || s2 > 2.4 {
		t.Errorf("speedup at c=2: %g, want ≈2", s2)
	}
	if s4 < 2.6 || s4 > 4.6 {
		t.Errorf("speedup at c=4: %g, want ≈4", s4)
	}
}

func TestMaxAbsDiffPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	MaxAbsDiff(make([]float64, 3), make([]float64, 4))
}

func TestReplicatedDeterministic(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	bodies := RandomBodies(32, 11)
	a, err := Replicated(cost, 8, 2, bodies)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicated(cost, 8, 2, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.Time() != b.Sim.Time() {
		t.Error("simulated time must be deterministic")
	}
	if MaxAbsDiff(a.Forces, b.Forces) != 0 {
		t.Error("forces must be bit-identical across runs")
	}
}
