package strassen

import (
	"testing"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

func TestCAPSScheduleMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		n        int
		schedule string
	}{
		{8, ""},      // p=1, no levels
		{16, "D"},    // p=1, one local DFS level
		{16, "DD"},   // p=1, two local DFS levels
		{28, "B"},    // p=7
		{56, "DB"},   // p=7, DFS then BFS
		{56, "BD"},   // p=7, BFS then DFS
		{112, "DBB"}, // p=49
		{112, "BDB"}, // p=49
		{112, "DDB"}, // p=7
	} {
		a := matrix.Random(tc.n, tc.n, int64(tc.n)+1)
		b := matrix.Random(tc.n, tc.n, int64(tc.n)+2)
		want := matrix.Mul(a, b)
		got, err := CAPSSchedule(zeroCost, tc.schedule, a, b, 8)
		if err != nil {
			t.Fatalf("n=%d %q: %v", tc.n, tc.schedule, err)
		}
		if d := got.C.MaxAbsDiff(want); d > 1e-9*float64(tc.n) {
			t.Errorf("n=%d %q: max diff %g", tc.n, tc.schedule, d)
		}
	}
}

func TestCAPSScheduleValidation(t *testing.T) {
	a := matrix.Random(56, 56, 1)
	b := matrix.Random(56, 56, 2)
	if _, err := CAPSSchedule(zeroCost, "BX", a, b, 8); err == nil {
		t.Error("invalid schedule characters should be rejected")
	}
	// 56 is not divisible by 2^4 = 16, so a 3-level schedule must fail.
	if _, err := CAPSSchedule(zeroCost, "DBB", a, b, 8); err == nil {
		t.Error("insufficient divisibility should be rejected")
	}
}

// TestCheckCAPSMatchesRun pins CheckCAPS to what CAPS itself does: nil
// where the run succeeds, and the run's own error where it fails.
func TestCheckCAPSMatchesRun(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{112, 1}, {128, 1}, {28, 1}, {112, 2}, {56, 2}, {16, 0}, {16, -1}} {
		a := matrix.Random(tc.n, tc.n, 1)
		_, runErr := CAPS(zeroCost, tc.k, a, a, 8)
		checkErr := CheckCAPS(tc.n, tc.k)
		if (runErr == nil) != (checkErr == nil) || (runErr != nil && runErr.Error() != checkErr.Error()) {
			t.Errorf("n=%d k=%d: CheckCAPS %v, CAPS %v", tc.n, tc.k, checkErr, runErr)
		}
	}
	if CheckCAPS(128, 1) == nil {
		t.Error("n=128 does not split over 7 ranks")
	}
}

func TestDFSSavesMemory(t *testing.T) {
	// Same rank count (p=7), same n: prepending a DFS level shrinks the
	// leaf subproblems from n/2 to n/4 — a 4x saving on the leaf term,
	// diluted by the per-level share buffers (every term scales with n², so
	// the peak ratio is a schedule-determined constant between 1.5x and 4x).
	const n = 112
	a := matrix.Random(n, n, 3)
	b := matrix.Random(n, n, 4)
	bfs, err := CAPSSchedule(zeroCost, "B", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := CAPSSchedule(zeroCost, "DB", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	mBFS := bfs.Sim.MaxStats().PeakMemWords
	mDFS := dfs.Sim.MaxStats().PeakMemWords
	ratio := mBFS / mDFS
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("DFS memory saving: got %.2fx, want in [1.5, 4] (BFS %g, DFS %g)", ratio, mBFS, mDFS)
	}
}

func TestDFSCostsMoreBandwidth(t *testing.T) {
	// The tradeoff's other side: the DFS level redistributes all seven
	// subproblems across the whole group, so more words move per rank.
	const n = 112
	a := matrix.Random(n, n, 5)
	b := matrix.Random(n, n, 6)
	bfs, err := CAPSSchedule(zeroCost, "B", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := CAPSSchedule(zeroCost, "DB", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	wBFS := bfs.Sim.MaxStats().WordsSent
	wDFS := dfs.Sim.MaxStats().WordsSent
	if wDFS <= wBFS {
		t.Errorf("DFS should move more words: %g vs %g", wDFS, wBFS)
	}
}

func TestScheduleOrderMattersForMemoryNotCorrectness(t *testing.T) {
	const n = 112
	a := matrix.Random(n, n, 7)
	b := matrix.Random(n, n, 8)
	r1, err := CAPSSchedule(zeroCost, "DBB", a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CAPSSchedule(zeroCost, "BDB", a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := r1.C.MaxAbsDiff(r2.C); d > 1e-10*n {
		t.Errorf("schedule order changed the product: %g", d)
	}
	// Flop totals agree too (same arithmetic, different layout).
	f1 := r1.Sim.TotalStats().Flops
	f2 := r2.Sim.TotalStats().Flops
	if f1 != f2 {
		t.Errorf("flop totals differ: %g vs %g", f1, f2)
	}
}

func TestDFSOnlySingleRank(t *testing.T) {
	// A pure-DFS schedule runs on one rank and must equal serial Strassen's
	// flop count for the same effective recursion.
	const n = 32
	a := matrix.Random(n, n, 9)
	b := matrix.Random(n, n, 10)
	res, err := CAPSSchedule(zeroCost, "DD", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul(a, b)
	if d := res.C.MaxAbsDiff(want); d > 1e-10*n {
		t.Errorf("pure DFS wrong: %g", d)
	}
	if got := res.Sim.TotalStats().Flops; got != Flops(n, 8) {
		t.Errorf("pure-DFS flops %g, want serial Strassen %g", got, Flops(n, 8))
	}
}

func TestCAPSScheduleDeterministic(t *testing.T) {
	cost := sim.Cost{GammaT: 1e-9, BetaT: 4e-9, AlphaT: 1e-8}
	const n = 56
	a := matrix.Random(n, n, 11)
	b := matrix.Random(n, n, 12)
	r1, err := CAPSSchedule(cost, "DB", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CAPSSchedule(cost, "DB", a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sim.Time() != r2.Sim.Time() {
		t.Error("simulated time must be deterministic")
	}
}
