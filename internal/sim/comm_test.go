package sim

import (
	"math"
	"math/rand"
	"testing"
)

// runP runs fn on p ranks with zero costs and fails the test on error.
func runP(t *testing.T, p int, fn func(r *Rank) error) *Result {
	t.Helper()
	res, err := Run(p, zeroCost, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var collectiveSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestNewCommValidation(t *testing.T) {
	_, err := Run(4, zeroCost, func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		if _, err := r.NewComm([]int{0, 9}); err == nil {
			t.Error("out-of-range member accepted")
		}
		if _, err := r.NewComm([]int{0, 1, 1}); err == nil {
			t.Error("duplicate member accepted")
		}
		if _, err := r.NewComm([]int{1, 2}); err == nil {
			t.Error("communicator without caller accepted")
		}
		members := []int{2, 0, 3}
		c, err := r.NewComm(members)
		if err != nil {
			t.Errorf("valid communicator rejected: %v", err)
			return nil
		}
		members[0] = 1 // the communicator holds its own copy
		if c.Size() != 3 || c.Me() != 1 || c.members[0] != 2 {
			t.Errorf("comm layout wrong: size=%d me=%d member0=%d", c.Size(), c.Me(), c.members[0])
		}
		if c.rank != r {
			t.Error("the communicator should hold the constructing rank")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range collectiveSizes {
		for root := 0; root < p; root += max(1, p/3) {
			runP(t, p, func(r *Rank) error {
				w := r.World()
				var data []float64
				if w.Me() == root {
					data = []float64{3.5, -1, float64(root)}
				}
				got := w.Bcast(root, data)
				if len(got) != 3 || got[0] != 3.5 || got[2] != float64(root) {
					t.Errorf("p=%d root=%d rank=%d: bcast got %v", p, root, r.ID(), got)
				}
				return nil
			})
		}
	}
}

func TestBcastLogarithmicLatency(t *testing.T) {
	const p = 16
	res, err := Run(p, Cost{AlphaT: 1}, func(r *Rank) error {
		w := r.World()
		var data []float64
		if w.Me() == 0 {
			data = []float64{1}
		}
		w.Bcast(0, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial broadcast on 16 ranks: depth log2(16)=4, but the root sends
	// to its children sequentially, so the critical path is at most
	// log2(p) sequential sends along any root-to-leaf path plus the queuing
	// at the root: total <= log2(p) * alpha ... allow [4, 8] alphas.
	tt := res.Time()
	if tt < 4 || tt > 8 {
		t.Errorf("binomial bcast latency on p=16: got %g alphas, want within [4,8]", tt)
	}
}

func TestReduceAllSizes(t *testing.T) {
	for _, p := range collectiveSizes {
		root := p / 2
		runP(t, p, func(r *Rank) error {
			w := r.World()
			data := []float64{float64(w.Me()), 1}
			got := w.Reduce(root, data, OpSum)
			if w.Me() == root {
				wantSum := float64(p*(p-1)) / 2
				if got == nil || got[0] != wantSum || got[1] != float64(p) {
					t.Errorf("p=%d: reduce got %v want [%g %g]", p, got, wantSum, float64(p))
				}
			} else if got != nil {
				t.Errorf("p=%d rank=%d: non-root got non-nil %v", p, r.ID(), got)
			}
			return nil
		})
	}
}

func TestReduceDoesNotMutateInput(t *testing.T) {
	runP(t, 4, func(r *Rank) error {
		w := r.World()
		data := []float64{float64(w.Me())}
		w.Reduce(0, data, OpSum)
		if data[0] != float64(w.Me()) {
			t.Errorf("rank %d: Reduce mutated caller data: %v", r.ID(), data)
		}
		return nil
	})
}

// opMax is elementwise maximum: a reduction that is not a sum, for the
// tests that must tell the op the caller passed from OpSum.
func opMax(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

func TestReduceMax(t *testing.T) {
	runP(t, 8, func(r *Rank) error {
		w := r.World()
		got := w.Reduce(0, []float64{float64(w.Me() * w.Me())}, opMax)
		if w.Me() == 0 && got[0] != 49 {
			t.Errorf("max reduce: got %v want 49", got)
		}
		return nil
	})
}

func TestAllReduceAllSizes(t *testing.T) {
	for _, p := range collectiveSizes {
		runP(t, p, func(r *Rank) error {
			w := r.World()
			got := w.AllReduce([]float64{1, float64(w.Me())}, OpSum)
			wantSum := float64(p*(p-1)) / 2
			if got[0] != float64(p) || got[1] != wantSum {
				t.Errorf("p=%d rank=%d: allreduce got %v", p, r.ID(), got)
			}
			return nil
		})
	}
}

func TestAllToAllAllSizes(t *testing.T) {
	for _, p := range collectiveSizes {
		runP(t, p, func(r *Rank) error {
			w := r.World()
			// Block for member j encodes (sender, receiver).
			data := make([]float64, p)
			for j := 0; j < p; j++ {
				data[j] = float64(w.Me()*1000 + j)
			}
			got := w.AllToAll(data)
			for i := 0; i < p; i++ {
				want := float64(i*1000 + w.Me())
				if got[i] != want {
					t.Errorf("p=%d rank=%d: block %d = %g want %g", p, r.ID(), i, got[i], want)
				}
			}
			return nil
		})
	}
}

func TestAllToAllTreeMatchesNaive(t *testing.T) {
	for _, p := range collectiveSizes {
		const k = 3
		rng := rand.New(rand.NewSource(42))
		inputs := make([][]float64, p)
		for i := range inputs {
			inputs[i] = make([]float64, p*k)
			for j := range inputs[i] {
				inputs[i][j] = rng.Float64()
			}
		}
		naive := make([][]float64, p)
		tree := make([][]float64, p)
		runP(t, p, func(r *Rank) error {
			naive[r.ID()] = r.World().AllToAll(inputs[r.ID()])
			return nil
		})
		runP(t, p, func(r *Rank) error {
			tree[r.ID()] = r.World().AllToAllTree(inputs[r.ID()])
			return nil
		})
		for i := 0; i < p; i++ {
			for j := range naive[i] {
				if naive[i][j] != tree[i][j] {
					t.Fatalf("p=%d: tree all-to-all differs from naive at rank %d elem %d: %g vs %g",
						p, i, j, tree[i][j], naive[i][j])
				}
			}
		}
	}
}

func TestAllToAllMessageCounts(t *testing.T) {
	// Naive: p-1 messages per rank. Tree: ceil(log2 p) messages per rank.
	const p = 16
	const k = 2
	data := make([]float64, p*k)
	resNaive, err := Run(p, zeroCost, func(r *Rank) error {
		r.World().AllToAll(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resTree, err := Run(p, zeroCost, func(r *Rank) error {
		r.World().AllToAllTree(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resNaive.PerRank[0].MsgsSent; got != p-1 {
		t.Errorf("naive all-to-all messages: got %g want %d", got, p-1)
	}
	if got := resTree.PerRank[0].MsgsSent; got != 4 {
		t.Errorf("tree all-to-all messages: got %g want log2(16)=4", got)
	}
	// Tree moves more words: (k*p/2)*log2(p) vs k*(p-1).
	naiveWords := resNaive.PerRank[0].WordsSent
	treeWords := resTree.PerRank[0].WordsSent
	if treeWords <= naiveWords {
		t.Errorf("tree all-to-all should move more words: tree %g naive %g", treeWords, naiveWords)
	}
	if want := float64(k*p/2) * 4; treeWords != want {
		t.Errorf("tree words: got %g want %g", treeWords, want)
	}
}

func TestShiftByArbitraryAmounts(t *testing.T) {
	const p = 6
	for _, by := range []int{0, 1, 2, 5, 6, 7, -1, -3, -13} {
		runP(t, p, func(r *Rank) error {
			w := r.World()
			got := w.Shift([]float64{float64(w.Me())}, by)
			want := float64(((w.Me()-by)%p + p) % p)
			if got[0] != want {
				t.Errorf("shift by %d: rank %d got %g want %g", by, r.ID(), got[0], want)
			}
			return nil
		})
	}
}

func TestShiftSingleMember(t *testing.T) {
	runP(t, 1, func(r *Rank) error {
		got := r.World().Shift([]float64{7}, 3)
		if got[0] != 7 {
			t.Errorf("single-member shift: got %v", got)
		}
		return nil
	})
}

func TestSubCommunicatorCollectives(t *testing.T) {
	// Split 6 ranks into {0,2,4} and {1,3,5}; allreduce within each group.
	runP(t, 6, func(r *Rank) error {
		group := []int{r.ID() % 2, r.ID()%2 + 2, r.ID()%2 + 4}
		c, err := r.NewComm(group)
		if err != nil {
			return err
		}
		got := c.AllReduce([]float64{float64(r.ID())}, OpSum)
		want := float64(group[0] + group[1] + group[2])
		if got[0] != want {
			t.Errorf("rank %d: group allreduce got %g want %g", r.ID(), got[0], want)
		}
		return nil
	})
}

func TestGrid2D(t *testing.T) {
	g := Grid2D{Rows: 2, Cols: 3}
	if r, c := g.Coords(4); r != 1 || c != 1 {
		t.Errorf("Coords(4) = (%d,%d), want (1,1)", r, c)
	}
	if g.RankAt(1, 2) != 5 {
		t.Errorf("RankAt(1,2) = %d, want 5", g.RankAt(1, 2))
	}
	runP(t, 6, func(r *Rank) error {
		row, col := g.Coords(r.ID())
		rc, err := g.RowComm(r)
		if err != nil {
			return err
		}
		cc, err := g.ColComm(r)
		if err != nil {
			return err
		}
		// Row sum = sum of ranks in my row; col sum likewise.
		rowSum := rc.AllReduce([]float64{float64(r.ID())}, OpSum)[0]
		colSum := cc.AllReduce([]float64{float64(r.ID())}, OpSum)[0]
		wantRow := float64(g.RankAt(row, 0) + g.RankAt(row, 1) + g.RankAt(row, 2))
		wantCol := float64(g.RankAt(0, col) + g.RankAt(1, col))
		if rowSum != wantRow || colSum != wantCol {
			t.Errorf("rank %d: rowSum=%g (want %g) colSum=%g (want %g)", r.ID(), rowSum, wantRow, colSum, wantCol)
		}
		return nil
	})
}

func TestGrid3D(t *testing.T) {
	if _, err := NewGrid3D(2, 3, 11); err == nil {
		t.Error("2x2x3 cuboid with 11 ranks accepted")
	}
	g, err := NewGrid3D(2, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip coords.
	for rank := 0; rank < 12; rank++ {
		row, col, layer := g.Coords(rank)
		if g.RankAt(row, col, layer) != rank {
			t.Errorf("coords round-trip failed for rank %d", rank)
		}
		if row < 0 || row >= 2 || col < 0 || col >= 2 || layer < 0 || layer >= 3 {
			t.Errorf("rank %d: coords (%d,%d,%d) out of range", rank, row, col, layer)
		}
	}
	if lg := g.LayerGrid(); lg.Rows != 2 || lg.Cols != 2 {
		t.Errorf("LayerGrid = %+v", lg)
	}
	runP(t, 12, func(r *Rank) error {
		fc, err := g.FiberComm(r)
		if err != nil {
			return err
		}
		if fc.Size() != 3 {
			t.Errorf("fiber size %d", fc.Size())
		}
		// All fiber members share (row, col).
		row, col, layer := g.Coords(r.ID())
		if fc.members[layer] != r.ID() {
			t.Errorf("fiber member ordering: member(%d)=%d want %d", layer, fc.members[layer], r.ID())
		}
		sum := fc.AllReduce([]float64{1}, OpSum)
		if sum[0] != 3 {
			t.Errorf("fiber allreduce got %g", sum[0])
		}
		rc, err := g.RowComm(r)
		if err != nil {
			return err
		}
		cc, err := g.ColComm(r)
		if err != nil {
			return err
		}
		if rc.Size() != 2 || cc.Size() != 2 {
			t.Errorf("comm sizes: row=%d col=%d", rc.Size(), cc.Size())
		}
		// Every member of my row comm shares my row and layer.
		for i := 0; i < rc.Size(); i++ {
			mr, _, ml := g.Coords(rc.members[i])
			if mr != row || ml != layer {
				t.Errorf("row comm member %d has coords (%d,_,%d), want row %d layer %d", rc.members[i], mr, ml, row, layer)
			}
		}
		_, mcol, mlayer := g.Coords(cc.members[0])
		if mcol != col || mlayer != layer {
			t.Errorf("col comm first member mismatched")
		}
		return nil
	})
}

func TestAllToAllRejectsBadLength(t *testing.T) {
	_, err := Run(3, zeroCost, func(r *Rank) error {
		r.World().AllToAll(make([]float64, 4))
		return nil
	})
	if err == nil {
		t.Error("indivisible AllToAll length should error")
	}
}

// Property: for power-of-two sizes, reduce+bcast (AllReduce) produces the
// same result as gathering everything and summing locally.
func TestAllReduceMatchesGatherSum(t *testing.T) {
	const p = 8
	const k = 5
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, p)
	for i := range inputs {
		inputs[i] = make([]float64, k)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	want := make([]float64, k)
	for _, in := range inputs {
		for j, v := range in {
			want[j] += v
		}
	}
	runP(t, p, func(r *Rank) error {
		got := r.World().AllReduce(inputs[r.ID()], OpSum)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Errorf("rank %d elem %d: got %g want %g", r.ID(), j, got[j], want[j])
			}
		}
		return nil
	})
}
