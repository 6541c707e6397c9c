package matmul

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// runDigest is an FNV-1a digest of a run's product bits, ActivePairs and
// per-rank Stats.
func runDigest(res *RunResult) string {
	h := fnv.New64a()
	if res.C != nil {
		var buf [8]byte
		for _, v := range res.C.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(h, "%d %+v", res.Sim.ActivePairs, res.Sim.PerRank)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestConductedUnderContextBitIdentical pins the /simulate shapes (p = 128,
// n = 128, q = 8, c = 2) across the three shapes a conduct takes: under a
// cancel context (the service's default), without one, and under an empty
// fault plan (the conductor's faulted helpers). Product, per-rank counters
// and clocks, virtual time and active pairs must agree bit for bit, and the
// empty-plan run must reproduce the digest (runDigest) recorded from the
// member-by-member collectives a fault plan selected before the conductor
// took faulted runs too.
func TestConductedUnderContextBitIdentical(t *testing.T) {
	memberByMember := map[string]string{"matmul25d": "1ee63594d7557b4c", "summa25d": "17a60bfb00795cf2"}
	const n, q, c = 128, 8, 2
	a, b := randPair(n, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024}
	for name, alg := range map[string]func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*RunResult, error){
		"matmul25d": TwoPointFiveD, "summa25d": TwoPointFiveDSUMMA,
	} {
		run := func(faults *sim.FaultPlan, ctx context.Context) *RunResult {
			cost := base
			cost.Context = ctx
			cost.Faults = faults
			res, err := alg(cost, q, c, a, b)
			if err != nil {
				t.Fatalf("%s (fault plan %v): %v", name, faults != nil, err)
			}
			return res
		}
		ref := run(&sim.FaultPlan{}, nil)
		if got := runDigest(ref); got != memberByMember[name] {
			t.Errorf("%s under an empty plan: digest %s, want %s (member by member)", name, got, memberByMember[name])
		}
		for label, got := range map[string]*RunResult{
			"conducted+context": run(nil, ctx), "conducted": run(nil, nil),
		} {
			if d := got.C.MaxAbsDiff(ref.C); d != 0 {
				t.Errorf("%s %s: product differs from the empty-plan run by %g", name, label, d)
			}
			if got.Sim.Time() != ref.Sim.Time() || got.Sim.ActivePairs != ref.Sim.ActivePairs {
				t.Errorf("%s %s: Time %g vs %g, ActivePairs %d vs %d", name, label,
					got.Sim.Time(), ref.Sim.Time(), got.Sim.ActivePairs, ref.Sim.ActivePairs)
			}
			for id := range ref.Sim.PerRank {
				if got.Sim.PerRank[id] != ref.Sim.PerRank[id] {
					t.Errorf("%s %s rank %d:\ngot: %+v\nref: %+v", name, label, id, got.Sim.PerRank[id], ref.Sim.PerRank[id])
				}
			}
		}
	}
}
