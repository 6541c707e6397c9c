package matmul

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// TestPhantomOperands runs all four algorithms on phantom operands: each
// returns no product, and its per-rank Stats and ActivePairs equal the
// numeric run's bit for bit, fault-free and under an empty fault plan
// (the conductor's faulted helpers) alike (the conformance payload-free
// family holds the registry's four to the same, observer streams
// included). The empty-plan numeric run reproduces the digest (runDigest)
// recorded from the member-by-member collectives a fault plan selected
// before the conductor took faulted runs too. Operands of mixed kinds are
// refused.
func TestPhantomOperands(t *testing.T) {
	square := func(run func(sim.Cost, *matrix.Dense, *matrix.Dense) (*RunResult, error)) func(sim.Cost, bool) (*RunResult, error) {
		const n = 24
		numA, numB := randPair(n, 91)
		return func(cost sim.Cost, phantom bool) (*RunResult, error) {
			if phantom {
				return run(cost, Phantom(n, n), Phantom(n, n))
			}
			return run(cost, numA, numB)
		}
	}
	algs := map[string]func(sim.Cost, bool) (*RunResult, error){
		"TwoPointFiveD": square(func(cost sim.Cost, a, b *matrix.Dense) (*RunResult, error) {
			return TwoPointFiveD(cost, 4, 2, a, b)
		}),
		"ThreeD": square(func(cost sim.Cost, a, b *matrix.Dense) (*RunResult, error) { return ThreeD(cost, 2, a, b) }),
		"TwoPointFiveDSUMMA": square(func(cost sim.Cost, a, b *matrix.Dense) (*RunResult, error) {
			return TwoPointFiveDSUMMA(cost, 6, 3, a, b)
		}),
		"SUMMARect": func(cost sim.Cost, phantom bool) (*RunResult, error) {
			a, b := matrix.Random(24, 16, 93), matrix.Random(16, 32, 94)
			if phantom {
				a, b = Phantom(24, 16), Phantom(16, 32)
			}
			return SUMMARect(cost, 2, 4, 4, a, b)
		},
	}
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 64}
	emptyPlan := cost
	emptyPlan.Faults = &sim.FaultPlan{}
	memberByMember := map[string]string{"TwoPointFiveD": "b2165700ca1c6a99", "ThreeD": "d1e433b7d9f48884",
		"TwoPointFiveDSUMMA": "c36a1b6270c70483", "SUMMARect": "ff52ab17453213a0"}
	for name, run := range algs {
		for route, cost := range map[string]sim.Cost{"conducted": cost, "empty plan": emptyPlan} {
			numeric, err := run(cost, false)
			if err != nil {
				t.Fatalf("%s %s numeric: %v", name, route, err)
			}
			if got := runDigest(numeric); route == "empty plan" && got != memberByMember[name] {
				t.Errorf("%s under an empty plan: digest %s, want %s (member by member)", name, got, memberByMember[name])
			}
			phantom, err := run(cost, true)
			if err != nil {
				t.Fatalf("%s %s phantom: %v", name, route, err)
			}
			if phantom.C != nil {
				t.Errorf("%s %s: a payload-free run assembled a product", name, route)
			}
			if !slices.Equal(numeric.Sim.PerRank, phantom.Sim.PerRank) {
				t.Errorf("%s %s: per-rank stats differ\n  numeric: %+v\n  phantom: %+v",
					name, route, numeric.Sim.PerRank, phantom.Sim.PerRank)
			}
			if numeric.Sim.ActivePairs != phantom.Sim.ActivePairs {
				t.Errorf("%s %s: ActivePairs %d (numeric) vs %d (phantom)",
					name, route, numeric.Sim.ActivePairs, phantom.Sim.ActivePairs)
			}
		}
	}
	a, _ := randPair(8, 95)
	if _, err := TwoPointFiveDSUMMA(zeroCost, 2, 1, a, Phantom(8, 8)); err == nil {
		t.Error("a numeric A with a phantom B should be rejected")
	}
}

// TestPhantomCannonAllocsUnderPlan: a phantom TwoPointFiveD run (p = 128)
// allocates no more under the empty fault plan than without one, within
// 5 %: its ranks stay stackless and its shifts stay phantoms. (The
// fault-free run allocates ≈285 KiB at 2 workers; one goroutine per rank
// and a fresh buffer per faulted shift once made it 2.8 times that.)
func TestPhantomCannonAllocsUnderPlan(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	const q, c, n = 8, 2, 64
	a, b := Phantom(n, n), Phantom(n, n)
	alloc := func(plan *sim.FaultPlan) uint64 {
		cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, Workers: 2, Faults: plan}
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := TwoPointFiveD(cost, q, c, a, b); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	free, planned := alloc(nil), alloc(&sim.FaultPlan{})
	t.Logf("fault-free %d B, empty plan %d B", free, planned)
	if planned > free+free/20 {
		t.Errorf("the empty plan allocates %d B against %d B fault-free: more than 5 %% over", planned, free)
	}
}
