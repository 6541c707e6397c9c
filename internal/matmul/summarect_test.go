package matmul

import (
	"math"
	"slices"
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func TestSUMMARectMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ m, k, n, pr, pc, panel int }{
		{8, 8, 8, 2, 2, 4},    // square
		{16, 8, 12, 4, 2, 2},  // rectangular everything
		{6, 12, 10, 2, 2, 3},  // odd-ish panels
		{12, 24, 8, 4, 4, 2},  // wide k
		{20, 4, 20, 2, 2, 1},  // thin k, single-column panels
		{8, 8, 8, 1, 1, 8},    // single rank
		{24, 16, 24, 2, 4, 4}, // non-square grid
	} {
		a := matrix.Random(tc.m, tc.k, int64(tc.m+tc.k))
		b := matrix.Random(tc.k, tc.n, int64(tc.k+tc.n))
		want := matrix.Mul(a, b)
		got, err := SUMMARect(sim.Cost{}, tc.pr, tc.pc, tc.panel, a, b)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if d := got.C.MaxAbsDiff(want); d > 1e-10*float64(tc.k) {
			t.Errorf("%+v: max diff %g", tc, d)
		}
	}
}

func TestSUMMARectValidation(t *testing.T) {
	a := matrix.Random(8, 8, 1)
	b := matrix.Random(8, 8, 2)
	if _, err := SUMMARect(sim.Cost{}, 2, 2, 3, a, b); err == nil {
		t.Error("panel not dividing k should be rejected")
	}
	if _, err := SUMMARect(sim.Cost{}, 3, 2, 2, a, b); err == nil {
		t.Error("grid not dividing m should be rejected")
	}
	if _, err := SUMMARect(sim.Cost{}, 2, 2, 2, a, matrix.New(6, 8)); err == nil {
		t.Error("inner dimension mismatch should be rejected")
	}
	if _, err := SUMMARect(sim.Cost{}, 0, 2, 2, a, b); err == nil {
		t.Error("zero grid should be rejected")
	}
	// Panel straddling owner blocks: k=8, pc=4 => owner blocks of 2;
	// panel 4 would straddle them only if 2 % 4 != 0.
	if _, err := SUMMARect(sim.Cost{}, 2, 4, 4, matrix.Random(8, 8, 3), matrix.Random(8, 8, 4)); err == nil {
		t.Error("panel straddling owner blocks should be rejected")
	}
}

// TestSUMMARectSquareIsSUMMA25D: on square operands and a square grid, with
// one panel per block, SUMMARect runs the same program as 2D SUMMA, which
// is TwoPointFiveDSUMMA at c = 1. Priced with non-zero γ, β and α, the two
// agree bit for bit on every rank's Stats, ActivePairs, Time and product.
func TestSUMMARectSquareIsSUMMA25D(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
	for _, q := range []int{2, 4, 8} {
		n := 8 * q
		a, b := matrix.Random(n, n, int64(q)), matrix.Random(n, n, int64(q)+1)
		rect, err := SUMMARect(cost, q, q, n/q, a, b)
		if err != nil {
			t.Fatalf("q=%d SUMMARect: %v", q, err)
		}
		sq, err := TwoPointFiveDSUMMA(cost, q, 1, a, b)
		if err != nil {
			t.Fatalf("q=%d TwoPointFiveDSUMMA: %v", q, err)
		}
		if !slices.Equal(rect.Sim.PerRank, sq.Sim.PerRank) {
			t.Errorf("q=%d: per-rank stats differ\n  SUMMARect:          %+v\n  TwoPointFiveDSUMMA: %+v",
				q, rect.Sim.PerRank, sq.Sim.PerRank)
		}
		if rect.Sim.ActivePairs != sq.Sim.ActivePairs {
			t.Errorf("q=%d: ActivePairs %d vs %d", q, rect.Sim.ActivePairs, sq.Sim.ActivePairs)
		}
		if rect.Sim.Time() != sq.Sim.Time() {
			t.Errorf("q=%d: Time %g vs %g", q, rect.Sim.Time(), sq.Sim.Time())
		}
		if !slices.EqualFunc(rect.C.Data, sq.C.Data, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			t.Errorf("q=%d: products differ, max diff %g", q, rect.C.MaxAbsDiff(sq.C))
		}
	}
}

func TestSUMMARectPanelWidthTradeoff(t *testing.T) {
	// Narrower panels mean more broadcasts (more messages) but the same
	// total words — the classic SUMMA latency/pipeline knob.
	const m, k, n = 16, 16, 16
	a := matrix.Random(m, k, 7)
	b := matrix.Random(k, n, 8)
	narrow, err := SUMMARect(sim.Cost{}, 2, 2, 1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SUMMARect(sim.Cost{}, 2, 2, 8, a, b)
	if err != nil {
		t.Fatal(err)
	}
	nm := narrow.Sim.MaxStats().MsgsSent
	wm := wide.Sim.MaxStats().MsgsSent
	if nm <= wm {
		t.Errorf("narrow panels should send more messages: %g vs %g", nm, wm)
	}
	// Flop totals identical.
	if narrow.Sim.TotalStats().Flops != wide.Sim.TotalStats().Flops {
		t.Error("panel width must not change arithmetic")
	}
}

func TestSUMMARectBackendIdentity(t *testing.T) {
	// The conductor's faulted helpers (an empty fault plan selects them)
	// must be a perfect stand-in for its fault-free ones on rectangular
	// shapes and non-square grids: every per-rank counter — flops, words,
	// messages, peak memory, and all four clock decompositions —
	// bit-identical, and the product matrix too; and the empty-plan run
	// must reproduce the digest (runDigest) recorded from the
	// member-by-member collectives a fault plan selected before the
	// conductor took faulted runs too. Priced with nonzero α/β/γ and
	// fragmented messages so the time counters are exercised, not just the
	// event counts.
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 16}
	for _, tc := range []struct {
		m, k, n, pr, pc, panel int
		memberByMember         string
	}{
		{16, 8, 12, 4, 2, 2, "f50008e52c1b47bc"},  // tall grid
		{12, 24, 8, 2, 4, 2, "f94df2212cbadbe3"},  // wide grid, wide k
		{24, 16, 24, 2, 4, 4, "cd373a402a417b5a"}, // non-square grid, square-ish operands
		{20, 4, 8, 2, 2, 1, "e2c8134e2f11decb"},   // thin k
	} {
		a := matrix.Random(tc.m, tc.k, int64(3*tc.m+tc.k))
		b := matrix.Random(tc.k, tc.n, int64(3*tc.k+tc.n))
		gCost := cost
		gCost.Faults = &sim.FaultPlan{}
		g, err := SUMMARect(gCost, tc.pr, tc.pc, tc.panel, a, b)
		if err != nil {
			t.Fatalf("%+v under an empty plan: %v", tc, err)
		}
		if got := runDigest(g); got != tc.memberByMember {
			t.Errorf("%+v under an empty plan: digest %s, want %s (member by member)", tc, got, tc.memberByMember)
		}
		e, err := SUMMARect(cost, tc.pr, tc.pc, tc.panel, a, b)
		if err != nil {
			t.Fatalf("%+v conducted: %v", tc, err)
		}
		if d := g.C.MaxAbsDiff(e.C); d != 0 {
			t.Errorf("%+v: the two collective paths disagree on C, max diff %g", tc, d)
		}
		perRankF := 2.0 * float64(tc.m*tc.k*tc.n) / float64(tc.pr*tc.pc)
		for id := range g.Sim.PerRank {
			if g.Sim.PerRank[id] != e.Sim.PerRank[id] {
				t.Errorf("%+v rank %d stats differ:\n  empty plan %+v\n  conducted  %+v",
					tc, id, g.Sim.PerRank[id], e.Sim.PerRank[id])
			}
			if f := g.Sim.PerRank[id].Flops; f != perRankF {
				t.Errorf("%+v rank %d flops %g, want exactly 2mkn/p = %g", tc, id, f, perRankF)
			}
		}
	}
}

func TestSUMMARectPerRankCounterPins(t *testing.T) {
	// Exact per-rank counter values at a rectangular shape, derived by hand
	// from the collective algorithms, checked fault-free and under an empty
	// fault plan (the conductor's faulted helpers).
	//
	// m=12 k=8 n=16 on a 2×2 grid with panel=2: rowsPer=6, colsPer=8,
	// aColsPer=bRowsPer=4, and k/panel = 4 broadcast steps. Every row and
	// column communicator has two members, so each BcastLarge of an L-word
	// panel (L even, ≥ 2) costs its root 1 (size announcement) + L/2
	// (scatter) + L/2 (ring all-gather) = L+1 words over 3 messages, and
	// the non-root L/2 words over 1 message. Each rank is root for exactly
	// 2 of the 4 A-panels (L_A = rowsPer·panel = 12) and 2 of the 4
	// B-panels (L_B = panel·colsPer = 16):
	//
	//   W_sent = W_recv = 2·13 + 2·6 + 2·17 + 2·8 = 88
	//   S_sent = S_recv = 2·3 + 2·1 + 2·3 + 2·1   = 16
	//   F      = 2·12·8·16/4                       = 768
	//   M      = 6·4 + 4·8 + 6·8                   = 104
	const (
		m, k, n, pr, pc, panel = 12, 8, 16, 2, 2, 2
		wantW                  = 88.0
		wantS                  = 16.0
		wantF                  = 768.0
		wantM                  = 104.0
	)
	a := matrix.Random(m, k, 11)
	b := matrix.Random(k, n, 12)
	for _, rt := range []string{"conducted", "empty plan"} {
		cost := sim.Cost{}
		if rt == "empty plan" {
			cost.Faults = &sim.FaultPlan{}
		}
		res, err := SUMMARect(cost, pr, pc, panel, a, b)
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		for id, s := range res.Sim.PerRank {
			if s.Flops != wantF {
				t.Errorf("%v rank %d: flops %g, want %g", rt, id, s.Flops, wantF)
			}
			if s.WordsSent != wantW || s.WordsRecv != wantW {
				t.Errorf("%v rank %d: words sent/recv %g/%g, want %g each", rt, id, s.WordsSent, s.WordsRecv, wantW)
			}
			if s.MsgsSent != wantS || s.MsgsRecv != wantS {
				t.Errorf("%v rank %d: msgs sent/recv %g/%g, want %g each", rt, id, s.MsgsSent, s.MsgsRecv, wantS)
			}
			if s.PeakMemWords != wantM {
				t.Errorf("%v rank %d: peak mem %g, want %g", rt, id, s.PeakMemWords, wantM)
			}
		}
	}
}

func TestSUMMARectFlopBalance(t *testing.T) {
	const m, k, n = 16, 8, 12
	a := matrix.Random(m, k, 9)
	b := matrix.Random(k, n, 10)
	res, err := SUMMARect(sim.Cost{}, 4, 2, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * m * k * n
	if got := res.Sim.TotalStats().Flops; got != want {
		t.Errorf("total flops %g, want %g", got, want)
	}
	maxF := res.Sim.MaxStats().Flops
	if maxF != want/8 {
		t.Errorf("per-rank flops %g, want %g", maxF, want/8)
	}
}
