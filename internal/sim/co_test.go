package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runWithin runs fn on a p-rank cluster and fails the test if Run does not
// return within ten seconds.
func runWithin(t *testing.T, p int, cost Cost, fn func(r *Rank) error) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := Run(p, cost, fn)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("the run wedged")
		return nil, nil
	}
}

// TestClosureGoexit: a rank that calls runtime.Goexit — what t.FailNow
// does inside a rank — ends with an error that names it, and its peers
// see a failed peer, not a clean exit. The Goexit unwinds the worker that
// stepped the rank, never Run's caller, and the run completes without it,
// on one worker as on two.
func TestClosureGoexit(t *testing.T) {
	for _, workers := range []int{1, 2} {
		base := runtime.NumGoroutine()
		var deferred atomic.Bool
		cost := unitCost
		cost.Workers = workers
		_, err := runWithin(t, 4, cost, func(r *Rank) error {
			next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
			if r.ID() == 1 {
				defer deferred.Store(true)
				r.Recv(prev)
				runtime.Goexit()
			}
			r.Send(next, []float64{1})
			r.Recv(prev)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "rank 1 called runtime.Goexit") {
			t.Fatalf("workers=%d: err = %v, want rank 1's Goexit named", workers, err)
		}
		if !strings.Contains(err.Error(), "rank 2 receiving from rank 1, which failed") {
			t.Errorf("workers=%d: rank 2's receive does not name the failed peer: %v", workers, err)
		}
		if !deferred.Load() {
			t.Errorf("workers=%d: the Goexiting rank's defer did not run", workers)
		}
		waitGoroutines(t, base)
	}
}

// TestClosureVerdictsUnwind: however a closure rank leaves the run, it
// leaves through its own stack — a defer in the closure runs — and Run
// leaves no goroutine behind: not a worker, not a coroutine.
func TestClosureVerdictsUnwind(t *testing.T) {
	crash := unitCost
	crash.Faults = &FaultPlan{Crashes: map[int]float64{0: 5}}
	full := unitCost
	full.chanCap = 1
	for _, tc := range []struct {
		name string
		cost Cost
		want string // in the run error; "" for a clean run
		body func(r *Rank, cancel func()) error
	}{
		{"clean", unitCost, "", func(r *Rank, _ func()) error {
			r.World().AllReduce([]float64{1}, OpSum)
			return nil
		}},
		{"error", unitCost, "rank 1: refused", func(r *Rank, _ func()) error {
			if r.ID() == 1 {
				return errors.New("refused")
			}
			return nil
		}},
		{"panic", unitCost, "rank 0 panicked: boom", func(r *Rank, _ func()) error {
			if r.ID() == 0 {
				panic("boom")
			}
			r.Recv(0)
			return nil
		}},
		{"deadlock", unitCost, "deadlock", func(r *Rank, _ func()) error {
			r.Recv(1 - r.ID())
			return nil
		}},
		{"crash", crash, "crash", func(r *Rank, _ func()) error {
			r.Compute(10)
			r.Send(1-r.ID(), []float64{1})
			r.Recv(1 - r.ID())
			return nil
		}},
		{"send to exited", full, "blocked in send to exited rank 1", func(r *Rank, _ func()) error {
			if r.ID() == 0 {
				r.Send(1, []float64{1})
				r.Send(1, []float64{2})
			}
			return nil
		}},
		{"cancel", unitCost, "run cancelled", func(r *Rank, cancel func()) error {
			if r.ID() == 0 {
				cancel()
				r.Recv(1) // parked until the sweep or rank 1's exit
			}
			for {
				r.Compute(1) // aborts at the first Compute after the cancel
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				cost := tc.cost
				cost.Workers, cost.Context = workers, ctx
				var unwound [2]atomic.Bool
				_, err := runWithin(t, 2, cost, func(r *Rank) error {
					defer unwound[r.ID()].Store(true)
					return tc.body(r, cancel)
				})
				cancel()
				if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("workers=%d: err = %v, want %q", workers, err, tc.want)
				}
				for id := range unwound {
					if !unwound[id].Load() {
						t.Errorf("workers=%d: rank %d left without running its defer", workers, id)
					}
				}
				waitGoroutines(t, base)
			}
		})
	}
}

// TestClosureAcrossWorkers: on eight workers and two processors a closure
// rank's coroutine is resumed by whichever worker pops it, so one rank's
// stack moves between workers from park to park. The run must match the
// one-worker run bit for bit; CI runs it twenty times under -race, which
// checks that each hand-over orders the rank's state.
func TestClosureAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, sh := range []struct {
		name string
		p    int
		fn   func(*Rank) error
	}{
		{"shape25d", 128, shape25D(t, 8, 2, 2, nil)},
		{"ring", 256, ringSendRecv},
		{"tour", 16, collectiveTour},
	} {
		cost := unitCost
		cost.Workers = 1
		ref, err := Run(sh.p, cost, sh.fn)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		cost.Workers = 8
		res, err := Run(sh.p, cost, sh.fn)
		if err != nil {
			t.Fatalf("%s, 8 workers: %v", sh.name, err)
		}
		requireSameResult(t, sh.name+" on 1 worker", ref, "on 8", res)
	}
}
