package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestEvRankOneCacheLine pins the scheduling record at 64 bytes: a sender's
// lock-free load of one rank's watch word must not share a cache line with
// the neighbouring record's locked fields.
func TestEvRankOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(evRank{}); s != 64 {
		t.Fatalf("evRank is %d bytes, want 64", s)
	}
}

// shape25D is the 2.5D matmul's communication skeleton on a q×q×c grid:
// conducted fiber collectives around q/c pairwise row and column shifts,
// repeated rounds times (rounds < 0: until cancelled). firstRound, when
// non-nil, receives rank 0's wall time for its first round.
func shape25D(t *testing.T, q, c, rounds int, firstRound chan<- time.Duration) func(*Rank) error {
	grid, err := NewGrid3D(q, c, q*q*c)
	if err != nil {
		t.Fatal(err)
	}
	return func(r *Rank) error {
		row, err := grid.RowComm(r)
		if err != nil {
			return err
		}
		col, err := grid.ColComm(r)
		if err != nil {
			return err
		}
		fiber, err := grid.FiberComm(r)
		if err != nil {
			return err
		}
		_, _, layer := grid.Coords(r.ID())
		start := time.Now()
		for n := 0; n != rounds; n++ {
			var a []float64
			if layer == 0 {
				a = make([]float64, 2*c)
				for i := range a {
					a[i] = float64(r.ID() + i)
				}
			}
			a = fiber.BcastLarge(0, a)
			b := append([]float64(nil), a...)
			for step := 0; step < q/c; step++ {
				r.Compute(float64(8 + r.ID()%3))
				a = row.ShiftOwned(a, -1)
				b = col.ShiftOwned(b, -1)
			}
			fiber.ReduceLarge(0, b, OpSum)
			if r.ID() == 0 && n == 0 && firstRound != nil {
				firstRound <- time.Since(start)
			}
		}
		return nil
	}
}

// ringSendRecv is the benchmark's p2p probe shape: every rank passes a
// block round its ring, parking whenever its source has not run yet.
func ringSendRecv(r *Rank) error {
	next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
	data := []float64{float64(r.ID()), 1, 2, 3}
	for i := 0; i < 16; i++ {
		r.Compute(float64(1 + r.ID()%5))
		data = r.SendRecv(next, data, prev)
	}
	return nil
}

// TestResumeOutsideLock pins what moving resume tokens and carrier spawns
// out of eventEngine.mu must not change. With more workers than processors
// a picked rank regularly sits between its pick and its token while other
// goroutines park, wake and sweep around it; results must still be bit
// identical at every worker count, and a cancel sweep must treat a picked
// rank as running — never hand it a second token.
func TestResumeOutsideLock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	workers := []int{1, 2, 3, 8}
	shapes := []struct {
		name string
		fn   func(*Rank) error
	}{
		{"shape25d", shape25D(t, 32, 4, 1, nil)},
		{"ring", ringSendRecv},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var ref *Result
			for _, w := range workers {
				cost := unitCost
				cost.Workers = w
				res, err := Run(4096, cost, sh.fn)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				requireSameResult(t, "workers=1", ref, "workers>1", res)
				if res.Time() != ref.Time() {
					t.Errorf("workers=%d: Time() = %v, want %v", w, res.Time(), ref.Time())
				}
			}
		})
	}

	t.Run("cancel", func(t *testing.T) {
		const q = 16 // p = 1024 keeps 40 spawns inside the package's wall budget
		base := runtime.NumGoroutine()
		for i := 0; i < 40; i++ {
			cause := errors.New("stagger")
			ctx, cancel := context.WithCancelCause(context.Background())
			first := make(chan time.Duration, 1) // sent once, by rank 0
			cancelledAt := make(chan time.Time, 1)
			go func() {
				time.Sleep(<-first * time.Duration(i) / 20)
				cancelledAt <- time.Now()
				cancel(cause)
			}()
			cost := unitCost
			cost.Context = ctx
			cost.Workers = workers[i%len(workers)]
			c, err := NewCluster(q*q*4, cost)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Run(shape25D(t, q, 4, -1, first))
			if d := time.Since(<-cancelledAt); d > 2*time.Second {
				t.Fatalf("offset %d: run returned %v after the cancel", i, d)
			}
			if !errors.Is(err, cause) {
				t.Fatalf("offset %d: err = %.300v, want the cancel cause", i, err)
			}
			var de *DeadlockError
			if errors.As(err, &de) {
				t.Fatalf("offset %d: cancellation surfaced as a deadlock: %.300v", i, err)
			}
			for id := range c.eng.ranks {
				if len(c.eng.ranks[id].resume) != 0 {
					t.Fatalf("offset %d: rank %d was handed a resume token it never consumed", i, id)
				}
			}
		}
		waitGoroutines(t, base)
	})
}
