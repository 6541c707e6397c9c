package sim

import (
	"strings"
	"testing"
)

// TestRecvDrainsMessagesSentBeforeExit pins the delivery guarantee the exit
// notification must preserve: messages queued before the sender exits are
// received, in order, before a failed receive is reported.
func TestRecvDrainsMessagesSentBeforeExit(t *testing.T) {
	cost := unitCost
	cost.Workers = 1
	_, err := Run(2, cost, func(r *Rank) error {
		const n = 5
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, []float64{float64(i)})
			}
			return nil // exit immediately; rank 1 drains afterwards
		}
		// On one worker the 256th Compute yields to rank 0, which is behind
		// in virtual time and runs to its exit before rank 1 resumes.
		for i := 0; i < 256; i++ {
			r.Compute(1)
		}
		if exited, _, _ := r.PeerExit(0); !exited {
			t.Error("rank 0 has not exited before the drain; the test no longer tests it")
		}
		for i := 0; i < n; i++ {
			if got := r.Recv(0); got[0] != float64(i) {
				t.Errorf("message %d wrong or out of order: %v", i, got)
			}
		}
		r.Recv(0) // nothing left: must fail cleanly, not hang
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exited without sending") {
		t.Errorf("expected exited-peer error after drain, got %v", err)
	}
}

// TestActivePairsScalesWithPattern pins what on-demand wiring buys: the
// wired pair count follows the communication pattern, not p².
func TestActivePairsScalesWithPattern(t *testing.T) {
	const p = 64
	c, err := NewCluster(p, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(func(r *Rank) error {
		next := (r.ID() + 1) % p
		prev := (r.ID() - 1 + p) % p
		for step := 0; step < 4; step++ {
			r.Send(next, []float64{1})
			r.Recv(prev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A ring wires exactly p directed pairs, however many steps run.
	if got := c.ActivePairs(); got != p {
		t.Errorf("ring should wire exactly %d pairs, got %d", p, got)
	}
}

// TestSparseWiring16kRanks is the scale demonstration: a p=16384 cluster —
// whose dense wiring would allocate ~268M queues before the first flop —
// creates in milliseconds, runs a ring + hypercube exchange program, wires
// only pattern-many pairs, and produces the exact symmetric virtual time.
func TestSparseWiring16kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("16384-goroutine cluster: skipped in -short")
	}
	if raceEnabled {
		t.Skip("race detector caps a process at 8192 goroutines")
	}
	const p = 16384 // 2^14
	const k = 16
	cost := Cost{AlphaT: 1e-6, BetaT: 1e-9, ChanCap: 2}
	c, err := NewCluster(p, cost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(r *Rank) error {
		data := make([]float64, k)
		next := (r.ID() + 1) % p
		prev := (r.ID() - 1 + p) % p
		data = r.SendRecv(next, data, prev) // one ring step
		for bit := 1; bit < p; bit <<= 1 {  // 14 hypercube rounds
			data = r.SendRecv(r.ID()^bit, data, r.ID()^bit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank runs the identical fully-overlapped schedule: 15 exchange
	// steps of αt + k·βt each, exactly (summed the way the clock does, so
	// the comparison is bit-exact).
	dt := cost.AlphaT*1 + cost.BetaT*float64(k)
	want := 0.0
	for i := 0; i < 15; i++ {
		want += dt
	}
	if got := res.Time(); got != want {
		t.Errorf("virtual time: got %g want %g", got, want)
	}
	// The ring wires p pairs (i → i+1) and each hypercube round wires p
	// pairs (i → i^bit); the bit=1 round re-uses the ring's pair for every
	// even i (i^1 == i+1), so p/2 of its pairs are already wired.
	if got, want := c.ActivePairs(), 15*p-p/2; got != want {
		t.Errorf("active pairs: got %d want %d (dense would be %d)", got, want, p*p)
	}
}
