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

// TestCancelReleasesBlockedRecv cancels a run where every rank is blocked in
// Recv on a message that will never come, with the watchdog DISABLED, so
// only the cancellation path can release them.
func TestCancelReleasesBlockedRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, 2, Cost{WatchdogTimeout: -1}, func(r *Rank) error {
			r.Recv((r.ID() + 1) % r.P()) // mutual recv: a hard deadlock
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release ranks blocked in Recv")
	}
	waitGoroutines(t, base)
}

// TestCancelReleasesBlockedTimedRecv covers the RecvTimeout blocking select:
// a huge virtual timeout with the watchdog disabled blocks forever unless
// cancellation wakes it.
func TestCancelReleasesBlockedTimedRecv(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, 2, Cost{WatchdogTimeout: -1}, func(r *Rank) error {
			r.RecvTimeout((r.ID()+1)%r.P(), 1e12)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errors.Is(err, context.Canceled) = false, err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not release ranks blocked in RecvTimeout")
	}
	waitGoroutines(t, base)
}

// TestCancelReleasesBlockedSend covers the deliver() blocking select: rank 0
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
		_, err := RunContext(ctx, 2, Cost{ChanCap: 1, WatchdogTimeout: -1}, func(r *Rank) error {
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
	bothRuntimes(t, func(t *testing.T, rt Runtime) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: every rank aborts at its first op
		for i := 0; i < 200; i++ {
			_, err := RunContext(ctx, 8, Cost{Runtime: rt}, func(r *Rank) error {
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
	_, err := RunContext(ctx, 2, Cost{WatchdogTimeout: -1}, func(r *Rank) error {
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

// TestNoContextUnaffected pins the zero-cost path: a run without a context
// has a nil cancel channel and must behave exactly as before.
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

// bothRuntimes runs fn once per execution backend as a named subtest.
func bothRuntimes(t *testing.T, fn func(t *testing.T, rt Runtime)) {
	for _, rt := range []Runtime{RuntimeGoroutine, RuntimeEvent} {
		t.Run(rt.String(), func(t *testing.T) { fn(t, rt) })
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
	bothRuntimes(t, func(t *testing.T, rt Runtime) {
		masked := 0
		var first error
		for i := 0; i < runs; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Duration(i%11)*100*time.Microsecond, cancel)
			_, err := RunContext(ctx, 64, Cost{Runtime: rt}, func(r *Rank) error {
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

// TestConductedUnderContextIdentical runs the collective tour on the event
// engine with a (never-cancelled) context, without one, and on the
// goroutine backend: a cancel context no longer disqualifies conducted
// collectives, and conducting them changes nothing observable.
func TestConductedUnderContextIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range []int{2, 3, 4, 7, 8, 16} {
		ref, _ := runBothBackends(t, p, unitCost, collectiveTour)
		cost := eventCost()
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
		requireSameResult(t, "goroutine", ref, "event+context", res)
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
		cost := eventCost()
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
	cost := eventCost()
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
