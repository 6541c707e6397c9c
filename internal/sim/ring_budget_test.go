package sim_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"perfscale/internal/matmul"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// minRunBytes returns the fewest bytes one call of run allocated over a few
// calls. Queue occupancy, and with it ring growth, depends on how the host
// interleaves sender and receiver; the smallest of a few runs is the
// reproducible part (the first also warms the rendezvous pool). Skipped
// under the race detector, whose instrumentation changes the counts.
func minRunBytes(t *testing.T, run func() error) uint64 {
	t.Helper()
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	best := ^uint64(0)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestRingBytesPerRankBudget pins what a default-Cost event run allocates
// per rank: 2.5D Cannon at p = 4096 with 4×4 blocks, the benchmark's
// sim_scale shape one size down, where the runtime's own records — not the
// algorithm's data — are nearly all of it. Queues and peer tables that cost
// what they hold, under conductors that allocate only what a member keeps,
// measure 4.0 kB; the budget is that plus 25 %. Paying for ChanCap slots per
// pair up front costs 17.8 kB here, so a transport that goes back to that
// fails long before the benchmark notices.
func TestRingBytesPerRankBudget(t *testing.T) {
	const n, q, c = 128, 32, 4
	const budget = 5000 // bytes per rank
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	cost := sim.Cost{GammaT: 1e-11, BetaT: 1e-10, AlphaT: 1e-6}
	got := minRunBytes(t, func() error {
		_, err := matmul.TwoPointFiveD(cost, q, c, a, b)
		return err
	}) / (q * q * c)
	t.Logf("%d bytes per rank (budget %d)", got, budget)
	if got > budget {
		t.Errorf("2.5D run at p=%d allocated %d bytes per rank, budget %d", q*q*c, got, budget)
	}
}

// TestSmallRunBytesBudget pins what one /simulate run allocates (n = 128,
// q = 8, c = 2, p = 128, under a cancel context): at this size
// the bytes decide how many collector cycles a run triggers, and those are
// nearly half its wall (BenchmarkSmallRun in internal/matmul shows the
// chain). Conductors that copied what nobody keeps and panel loops that
// allocated a buffer per step measured 4,951 KiB (SUMMA) and 2,884 KiB
// (Cannon); borrowing ones measure ≈2,180 and ≈2,160.
func TestSmallRunBytesBudget(t *testing.T) {
	const n, q, c = 128, 8, 2
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024,
		Context: context.Background()}
	for _, alg := range []struct {
		name   string
		run    func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*matmul.RunResult, error)
		budget uint64 // KiB per run
	}{
		{"summa25d", matmul.TwoPointFiveDSUMMA, 2750},
		{"matmul25d", matmul.TwoPointFiveD, 2700},
	} {
		got := minRunBytes(t, func() error {
			_, err := alg.run(cost, q, c, a, b)
			return err
		}) / 1024
		t.Logf("%s: %d KiB per run (budget %d)", alg.name, got, alg.budget)
		if got > alg.budget {
			t.Errorf("%s: a p=%d run allocated %d KiB, budget %d", alg.name, q*q*c, got, alg.budget)
		}
	}
}

// TestConductedAllGatherAllocs pins that a conducted AllGather allocates
// the p·k-word result once per member: the wrapper used to build and fill
// its own copy before asking whether the engine conducts, garbage on return.
func TestConductedAllGatherAllocs(t *testing.T) {
	const p, k = 8, 2048
	const kept = p * p * k * 8 // bytes of results
	block := make([]float64, k)
	got := minRunBytes(t, func() error {
		_, err := sim.Run(p, sim.Cost{}, func(r *sim.Rank) error {
			if out := r.World().AllGather(block); len(out) != p*k {
				return fmt.Errorf("gathered %d words", len(out))
			}
			return nil
		})
		return err
	})
	if got > kept*5/4 {
		t.Errorf("conducted AllGather run allocated %d bytes, more than 1.25× the %d its members keep", got, kept)
	}
}
