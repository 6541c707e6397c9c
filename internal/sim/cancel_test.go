package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, failing the test if it never does: the leak detector for the
// cancellation paths.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after cancellation: %d now vs %d at start", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelStopsComputeLoop cancels a run whose ranks spin in an infinite
// compute loop — no blocking operations at all — and checks that every rank
// goroutine actually stops and the run error names the cause.
func TestCancelStopsComputeLoop(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once chan struct{} = started
	go func() {
		<-started
		cancel()
	}()
	res, err := RunContext(ctx, 4, Cost{GammaT: 1e-9}, func(r *Rank) error {
		for {
			if r.ID() == 0 && once != nil {
				close(once)
				once = nil
			}
			r.Compute(1000)
		}
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result; partial stats expected")
	}
	if res.PerRank[0].Flops == 0 {
		t.Error("rank 0 recorded no flops before cancellation")
	}
	waitGoroutines(t, base)
}

// cancelWhileParked runs a 3-rank program on one worker: ranks 0 and 1 park
// in wait (on each other, for something that never comes) while rank 2
// stays runnable in a Compute loop, so the cluster is never quiescent and
// only cancellation can release the parked pair. Rank 2's 256th Compute
// yields to the two ranks behind it in virtual time; once it runs again both
// have parked, and it cancels the run from there. The run must end with the
// cancel cause and leave no carrier behind.
func cancelWhileParked(t *testing.T, wait func(r *Rank)) {
	t.Helper()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, 3, Cost{GammaT: 1e-9, Workers: 1}, func(r *Rank) error {
			if r.ID() < 2 {
				wait(r)
				return nil
			}
			for n := 0; ; n++ {
				if n == 256 {
					cancel()
				}
				r.Compute(1000)
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release the parked ranks")
	}
	waitGoroutines(t, base)
}

// TestCancelReleasesBlockedRecv cancels a run where two ranks are parked in
// Recv on a message that will never come.
func TestCancelReleasesBlockedRecv(t *testing.T) {
	cancelWhileParked(t, func(r *Rank) { r.Recv(1 - r.ID()) })
}

// TestCancelReleasesBlockedTimedRecv covers the timed park: a huge virtual
// timeout cannot fire while a rank is still runnable, so only cancellation
// wakes it.
func TestCancelReleasesBlockedTimedRecv(t *testing.T) {
	cancelWhileParked(t, func(r *Rank) { r.RecvTimeout(1-r.ID(), 1e12) })
}

// TestCancelReleasesBlockedSend covers deliver()'s park: rank 0
// floods a pair whose 1-message buffer fills while rank 1 never receives.
func TestCancelReleasesBlockedSend(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, 2, Cost{ChanCap: 1}, func(r *Rank) error {
			if r.ID() == 0 {
				for i := 0; i < 100; i++ {
					r.Send(1, []float64{1})
				}
				return nil
			}
			r.Recv(0) // receive once, then leave rank 0 blocked on the full buffer
			for {
				r.Compute(1000)
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release rank blocked in Send")
	}
	waitGoroutines(t, base)
}

// TestCancelDeadline checks that a context deadline surfaces as
// context.DeadlineExceeded through the run error.
func TestCancelDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, 2, Cost{GammaT: 1e-9}, func(r *Rank) error {
		for {
			r.Compute(1000)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false, err = %v", err)
	}
}

// TestCancelErrorCollapsed checks that a cancelled run reports ONE run-level
// error, not one per rank, and that CancelledError is reachable for callers
// that care which ranks died. The context is already cancelled when the run
// starts, which needs no timing: Run observes that before the first rank
// starts, so the run never returns nil however few ops its ranks execute.
func TestCancelErrorCollapsed(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: every rank aborts at its first op
		for i := 0; i < 200; i++ {
			_, err := RunContext(ctx, 8, Cost{}, func(r *Rank) error {
				r.Compute(1)
				return nil
			})
			if err == nil {
				t.Fatalf("run %d: pre-cancelled run returned nil error", i)
			}
			if got := len(errors.Join(err).Error()); got > 200 {
				t.Errorf("cancelled run error looks per-rank, not collapsed (%d bytes): %v", got, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
			}
		}
	})
}

// TestCancelRealErrorTakesPrecedence checks that a rank failing for a real
// reason is not masked when the same run is also cancelled afterwards.
func TestCancelRealErrorTakesPrecedence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sentinel := errors.New("real failure")
	failed := make(chan struct{})
	go func() {
		<-failed
		cancel()
	}()
	var fc chan struct{} = failed
	_, err := RunContext(ctx, 2, Cost{}, func(r *Rank) error {
		if r.ID() == 0 {
			if fc != nil {
				close(fc)
				fc = nil
			}
			return sentinel
		}
		for {
			r.Compute(1000)
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("real rank error masked by cancellation: %v", err)
	}
}

// TestNoContextUnaffected pins the context-free path: a run without a
// context binds nothing and behaves like any plain run.
func TestNoContextUnaffected(t *testing.T) {
	res, err := Run(2, Cost{}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1, 2, 3})
			return nil
		}
		got := r.Recv(0)
		if len(got) != 3 {
			t.Errorf("recv got %d words, want 3", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	if res.PerRank[1].WordsRecv != 3 {
		t.Errorf("WordsRecv = %g, want 3", res.PerRank[1].WordsRecv)
	}
}

// TestCancelNotMaskedByCascade cancels a p=64 ring of Send/Recv 0–1 ms
// into the run. A rank may observe its neighbour's cancelled
// exit before it observes the cancellation itself; that must still unwind
// as cancelled, never as a "receiving from rank N, which failed (cascade…)"
// panic that outranks the collapsed cancel error in the joined run error.
func TestCancelNotMaskedByCascade(t *testing.T) {
	runs := 3000
	if raceEnabled || testing.Short() {
		runs = 300
	}
	t.Run("event", func(t *testing.T) {
		masked := 0
		var first error
		for i := 0; i < runs; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Duration(i%11)*100*time.Microsecond, cancel)
			_, err := RunContext(ctx, 64, Cost{}, func(r *Rank) error {
				next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
				for {
					r.Send(next, []float64{1})
					r.Recv(prev)
				}
			})
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				masked++
				if first == nil {
					first = err
				}
			}
		}
		if masked > 0 {
			t.Fatalf("%d of %d cancelled runs returned a non-cancel error; first: %.400v", masked, runs, first)
		}
	})
}

// TestConductedUnderContextIdentical runs the collective tour with a
// (never-cancelled) context and without one: a cancel context does not
// disqualify conducted collectives, and the cancel-safe conduct changes
// nothing observable.
func TestConductedUnderContextIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range []int{2, 3, 4, 7, 8, 16} {
		ref := runSchedules(t, p, unitCost, collectiveTour)
		cost := unitCost
		cost.Context = ctx
		c, err := NewCluster(p, cost)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(func(r *Rank) error {
			if err := collectiveTour(r); err != nil {
				return err
			}
			if len(r.ffSeq) == 0 {
				return errors.New("no collective went through a rendezvous")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !c.eng.ffOK || !c.eng.cancellable {
			t.Fatalf("p=%d: ffOK=%v cancellable=%v, want a cancellable conducted run", p, c.eng.ffOK, c.eng.cancellable)
		}
		requireSameResult(t, "no context", ref, "context", res)
	}
}

// TestCancelMidConduct cancels a p=1024 AllReduce+Shift loop — with
// 512-word payloads the engine spends much of its time inside conducts — at
// 40 offsets staggered across two steady-state iterations (rank 0 times its
// first iteration, so the stagger follows the race detector's slowdown; a
// quarter to a third of the sweeps then find a conduct in flight). Every run
// must end within 2 s of the cancel with the cancel cause (never a deadlock
// verdict, a cascade panic or a wedge), and under -race no carrier may be
// resumed while a conductor still owns its Rank.
func TestCancelMidConduct(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		cause := errors.New("stagger")
		ctx, cancel := context.WithCancelCause(context.Background())
		iter := make(chan time.Duration, 1) // rank 0's first iteration, sent once
		cancelledAt := make(chan time.Time, 1)
		go func() {
			time.Sleep(<-iter * time.Duration(i) / 20)
			cancelledAt <- time.Now()
			cancel(cause)
		}()
		cost := unitCost
		cost.Context = ctx
		_, err := Run(1024, cost, func(r *Rank) error {
			w := r.World()
			data := make([]float64, 512)
			start := time.Now()
			for n := 0; ; n++ {
				data = w.Shift(w.AllReduce(data, OpSum), 1)
				if r.ID() == 0 && n == 0 {
					iter <- time.Since(start)
				}
			}
		})
		if d := time.Since(<-cancelledAt); d > 2*time.Second {
			t.Fatalf("offset %d: run returned %v after the cancel", i, d)
		}
		if !errors.Is(err, cause) || !errors.Is(err, context.Cause(ctx)) {
			t.Fatalf("offset %d: err = %.300v, want the cancel cause", i, err)
		}
		var de *DeadlockError
		if errors.As(err, &de) {
			t.Fatalf("offset %d: cancellation surfaced as a deadlock: %.300v", i, err)
		}
	}
	waitGoroutines(t, base)
}

// TestConductPanicUnderContext: a conduct that panics (members disagree on
// the payload length) must surface the panic on a cancellable run exactly
// like on a context-free one — the members it had taken out of the blocked
// set rejoin it, so quiescence resolves them instead of wedging the run.
func TestConductPanicUnderContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cost := unitCost
	cost.Context = ctx
	done := make(chan error, 1)
	go func() {
		_, err := Run(4, cost, func(r *Rank) error {
			r.World().Reduce(1, make([]float64, 1+r.ID()%2), OpSum)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "length mismatch") {
			t.Fatalf("expected a length-mismatch error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a panicking conduct wedged the cancellable run")
	}
}
