package matmul

import (
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

func TestSUMMARectAgreesWithSquareSUMMA(t *testing.T) {
	const n, q = 16, 4
	a := matrix.Random(n, n, 5)
	b := matrix.Random(n, n, 6)
	sq, err := SUMMA(sim.Cost{}, q, a, b)
	if err != nil {
		t.Fatal(err)
	}
	rect, err := SUMMARect(sim.Cost{}, q, q, n/q, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := sq.C.MaxAbsDiff(rect.C); d > 1e-11*n {
		t.Errorf("square vs rect SUMMA diff %g", d)
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
	// Conducted collectives must be a perfect stand-in for member-by-member
	// ones (Cost.Trace subscribes the tracer, which disqualifies the
	// conductor) on rectangular shapes and non-square grids: every per-rank
	// counter — flops, words, messages, peak memory, and all four clock
	// decompositions — bit-identical, and the product matrix too. Priced
	// with nonzero α/β/γ and fragmented messages so the time counters are
	// exercised, not just the event counts.
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 16}
	for _, tc := range []struct{ m, k, n, pr, pc, panel int }{
		{16, 8, 12, 4, 2, 2},  // tall grid
		{12, 24, 8, 2, 4, 2},  // wide grid, wide k
		{24, 16, 24, 2, 4, 4}, // non-square grid, square-ish operands
		{20, 4, 8, 2, 2, 1},   // thin k
	} {
		a := matrix.Random(tc.m, tc.k, int64(3*tc.m+tc.k))
		b := matrix.Random(tc.k, tc.n, int64(3*tc.k+tc.n))
		gCost := cost
		gCost.Trace = true
		g, err := SUMMARect(gCost, tc.pr, tc.pc, tc.panel, a, b)
		if err != nil {
			t.Fatalf("%+v member by member: %v", tc, err)
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
				t.Errorf("%+v rank %d stats differ:\n  member by member %+v\n  conducted        %+v",
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
	// from the collective algorithms, checked on both collective paths
	// (conducted, and member by member under Cost.Trace).
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
	for _, rt := range []string{"conducted", "member-by-member"} {
		res, err := SUMMARect(sim.Cost{Trace: rt == "member-by-member"}, pr, pc, panel, a, b)
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
