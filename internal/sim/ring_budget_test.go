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
// measured 3.9–4.9 kB (4 down to 1 worker: one worker queues more per
// pair); with the fiber pairs only conducted collectives use registered
// without a ring, and no receive-side peer table, 3.1–4.0 kB. The budget is
// 4,000, which the old wiring passed at four workers only. Paying for
// chanCap slots per pair up front costs 17.8 kB here, so a transport that
// goes back to that fails long before the benchmark notices.
func TestRingBytesPerRankBudget(t *testing.T) {
	const n, q, c = 128, 32, 4
	const budget = 4000 // bytes per rank
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
// (Cannon); borrowing ones ≈2,250 and ≈2,160, and with ringless
// conducted-only pairs ≈2,050 and ≈2,070. The budgets are those plus 25 %.
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
		{"summa25d", matmul.TwoPointFiveDSUMMA, 2560},
		{"matmul25d", matmul.TwoPointFiveD, 2600},
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

// TestPayloadFreeRunBytesBudget pins what one /simulate run allocates now
// that it is payload-free: the same p = 128 shapes on phantom operands, so
// no operand, block, panel, product or reduction buffer is allocated and
// what is left is the runtime's own records and the per-rank counters.
// Numeric runs measure ≈2,050–2,070 KiB; payload-free ones ≈280 KiB
// (Cannon) and ≈250 KiB (SUMMA, whose stepped ranks keep their state on
// the heap; its pairs are nearly all conducted-only and own no ring), and
// the budget is 350.
func TestPayloadFreeRunBytesBudget(t *testing.T) {
	const n, q, c = 128, 8, 2
	const budget = 350 // KiB per run
	a, b := matmul.Phantom(n, n), matmul.Phantom(n, n)
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024,
		Context: context.Background()}
	for _, alg := range []struct {
		name string
		run  func(sim.Cost, int, int, *matrix.Dense, *matrix.Dense) (*matmul.RunResult, error)
	}{{"summa25d", matmul.TwoPointFiveDSUMMA}, {"matmul25d", matmul.TwoPointFiveD}} {
		got := minRunBytes(t, func() error {
			_, err := alg.run(cost, q, c, a, b)
			return err
		}) / 1024
		t.Logf("%s: %d KiB per payload-free run (budget %d)", alg.name, got, budget)
		if got > budget {
			t.Errorf("%s: a payload-free p=%d run allocated %d KiB, budget %d", alg.name, q*q*c, got, budget)
		}
	}
}

// TestConductedBcastLargeAllocs pins that a conducted BcastLarge allocates
// the p·k-word result once per member and nothing else that outlives the
// conduct: the announcement borrows the pooled scratch, the scatter chunks
// are views of the root's buffer, and the all-gather ring builds each
// member's result in place, so a second copy of the result anywhere on the
// way doubles the bytes.
func TestConductedBcastLargeAllocs(t *testing.T) {
	const p, k = 8, 2048
	const kept = p * p * k * 8 // bytes of results
	data := make([]float64, p*k)
	got := minRunBytes(t, func() error {
		_, err := sim.Run(p, sim.Cost{}, func(r *sim.Rank) error {
			var in []float64
			if r.ID() == 0 {
				in = data
			}
			if out := r.World().BcastLarge(0, in); len(out) != p*k {
				return fmt.Errorf("broadcast %d words", len(out))
			}
			return nil
		})
		return err
	})
	if got > kept*5/4 {
		t.Errorf("conducted BcastLarge run allocated %d bytes, more than 1.25× the %d its members keep", got, kept)
	}
}
