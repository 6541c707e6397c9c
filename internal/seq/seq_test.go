package seq

import (
	"math"
	"testing"

	"perfscale/internal/bounds"
	"perfscale/internal/matrix"
)

func newMachine(t *testing.T, fast, msg int) *Machine {
	t.Helper()
	mc, err := New(fast, msg)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("zero fast memory should be rejected")
	}
	if _, err := New(100, 200); err == nil {
		t.Error("message larger than fast memory should be rejected")
	}
	if _, err := New(100, -1); err == nil {
		t.Error("negative message limit should be rejected")
	}
}

func TestLoadStoreAccounting(t *testing.T) {
	mc := newMachine(t, 100, 10)
	mc.Load(25) // 3 messages of <=10
	if mc.used != 25 {
		t.Errorf("used: %d", mc.used)
	}
	mc.Store(20)
	mc.Discard(5)
	s := mc.Stats()
	if s.Words != 45 { // 25 in + 20 out
		t.Errorf("words: %g", s.Words)
	}
	if s.Msgs != 5 { // 3 + 2
		t.Errorf("messages: %g", s.Msgs)
	}
	if s.PeakFast != 25 {
		t.Errorf("peak: %d", s.PeakFast)
	}
	if mc.used != 0 {
		t.Errorf("residual residency: %d", mc.used)
	}
}

func TestOverflowPanics(t *testing.T) {
	mc := newMachine(t, 10, 0)
	defer func() {
		if recover() == nil {
			t.Error("overflow should panic")
		}
	}()
	mc.Load(11)
}

func TestEvictUnderflowPanics(t *testing.T) {
	mc := newMachine(t, 10, 0)
	defer func() {
		if recover() == nil {
			t.Error("underflow should panic")
		}
	}()
	mc.Discard(1)
}

func TestBlockedMatMulCorrect(t *testing.T) {
	for _, tc := range []struct{ n, bs int }{{8, 2}, {16, 4}, {24, 8}, {12, 12}} {
		mc := newMachine(t, 3*tc.bs*tc.bs, 0)
		a := matrix.Random(tc.n, tc.n, int64(tc.n))
		b := matrix.Random(tc.n, tc.n, int64(tc.n)+1)
		c, err := BlockedMatMul(mc, a, b, tc.bs)
		if err != nil {
			t.Fatalf("n=%d bs=%d: %v", tc.n, tc.bs, err)
		}
		if d := c.MaxAbsDiff(matrix.Mul(a, b)); d > 1e-10*float64(tc.n) {
			t.Errorf("n=%d bs=%d: diff %g", tc.n, tc.bs, d)
		}
	}
}

func TestBlockedMatMulValidation(t *testing.T) {
	mc := newMachine(t, 100, 0)
	a := matrix.Random(8, 8, 1)
	if _, err := BlockedMatMul(mc, a, a, 3); err == nil {
		t.Error("non-dividing block should be rejected")
	}
	if _, err := BlockedMatMul(mc, a, a, 8); err == nil {
		t.Error("blocks exceeding fast memory should be rejected")
	}
	if _, err := BlockedMatMul(mc, matrix.New(4, 6), matrix.New(6, 6), 2); err == nil {
		t.Error("rectangular operands should be rejected")
	}
}

// TestBlockedMatMulAttainsHongKung: W within a small constant of the
// sequential lower bound n³/√M, and shrinking M by 4 doubles W.
func TestBlockedMatMulAttainsHongKung(t *testing.T) {
	const n = 48
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	words := map[int]float64{}
	for _, bs := range []int{4, 8, 16} {
		mc := newMachine(t, 3*bs*bs, 0)
		if _, err := BlockedMatMul(mc, a, b, bs); err != nil {
			t.Fatal(err)
		}
		words[bs] = mc.Stats().Words
		mem := float64(3 * bs * bs)
		bound := bounds.SequentialWords(2*float64(n)*float64(n)*float64(n), mem, 3*float64(n*n))
		ratio := words[bs] / bound
		if ratio < 0.3 || ratio > 4 {
			t.Errorf("bs=%d: W=%g vs bound %g (ratio %g) outside constant band", bs, words[bs], bound, ratio)
		}
	}
	// Quartering the memory (halving bs) doubles the transfer volume.
	r := words[4] / words[8]
	if r < 1.7 || r > 2.3 {
		t.Errorf("W(M/4)/W(M) = %g, want ≈2", r)
	}
}

func TestFlopCountsMatch(t *testing.T) {
	const n, bs = 16, 4
	mc := newMachine(t, 3*bs*bs, 0)
	a := matrix.Random(n, n, 7)
	b := matrix.Random(n, n, 8)
	if _, err := BlockedMatMul(mc, a, b, bs); err != nil {
		t.Fatal(err)
	}
	if got, want := mc.Stats().Flops, 2*math.Pow(n, 3); got != want {
		t.Errorf("flops %g, want %g", got, want)
	}
}

func TestMessageCountRespectsLimit(t *testing.T) {
	const n, bs = 16, 4
	// m = 8 words: each 16-word block load costs 2 messages.
	mc := newMachine(t, 3*bs*bs, 8)
	a := matrix.Random(n, n, 9)
	b := matrix.Random(n, n, 10)
	if _, err := BlockedMatMul(mc, a, b, bs); err != nil {
		t.Fatal(err)
	}
	s := mc.Stats()
	if s.Msgs != s.Words/8 {
		t.Errorf("messages %g should be words/8 = %g", s.Msgs, s.Words/8)
	}
}
