// Failure-injection tests: when a rank dies mid-algorithm — error return,
// panic, or silent early exit — every driver must surface a clean error
// instead of hanging or returning corrupt results.
package perfscale_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"perfscale/internal/lu"
	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// TestCollectiveSurvivesRankError: a rank failing before a collective turns
// into an error for the peers that depended on it.
func TestCollectiveSurvivesRankError(t *testing.T) {
	_, err := sim.Run(8, sim.Cost{}, func(r *sim.Rank) error {
		if r.ID() == 3 {
			return errInjected
		}
		r.World().AllReduce([]float64{1}, sim.OpSum)
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Errorf("error should identify a rank: %v", err)
	}
}

// TestCollectiveSurvivesRankPanic: same with a panic mid-broadcast.
func TestCollectiveSurvivesRankPanic(t *testing.T) {
	_, err := sim.Run(8, sim.Cost{}, func(r *sim.Rank) error {
		w := r.World()
		var data []float64
		if r.ID() == 0 {
			data = []float64{1, 2, 3}
		}
		w.Bcast(0, data)
		if r.ID() == 5 {
			panic("injected failure")
		}
		w.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("expected the injected panic to surface, got %v", err)
	}
}

// TestShiftPartnerDies: a ring algorithm whose upstream partner exits early
// gets a descriptive error.
func TestShiftPartnerDies(t *testing.T) {
	_, err := sim.Run(4, sim.Cost{}, func(r *sim.Rank) error {
		if r.ID() == 2 {
			return errInjected // exits before its sends
		}
		w := r.World()
		d := []float64{1}
		for s := 0; s < 3; s++ {
			d = w.Shift(d, 1)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
}

// TestMismatchedCollectiveDetected: one rank calling a different collective
// (a classic SPMD programming error) must error out, not hang.
func TestMismatchedCollectiveDetected(t *testing.T) {
	_, err := sim.Run(4, sim.Cost{}, func(r *sim.Rank) error {
		w := r.World()
		if r.ID() == 1 {
			// Skips the reduce entirely.
			return nil
		}
		w.Reduce(0, []float64{1}, sim.OpSum)
		return nil
	})
	if err == nil {
		t.Fatal("mismatched collective should error")
	}
}

// TestLengthMismatchedReduce: payload disagreement inside a reduce panics
// with a clear message and is surfaced.
func TestLengthMismatchedReduce(t *testing.T) {
	_, err := sim.Run(2, sim.Cost{}, func(r *sim.Rank) error {
		w := r.World()
		data := make([]float64, 1+r.ID()) // lengths differ across ranks
		w.Reduce(0, data, sim.OpSum)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Errorf("expected a length-mismatch error, got %v", err)
	}
}

// TestAlgorithmDriverPropagatesFailure: the high-level drivers wrap rank
// errors rather than returning partial results.
func TestAlgorithmDriverPropagatesFailure(t *testing.T) {
	// A singular (all-zero) matrix makes the LU panel fail on the diagonal
	// rank; the driver must return that error.
	zero := matrix.New(16, 16)
	if _, err := lu.TwoD(sim.Cost{}, 4, zero); err == nil {
		t.Error("singular LU should propagate the pivot failure")
	}
}

// TestWatchdogNamesMutuallyBlockedRanks: two live ranks each waiting in Recv
// on the other is the canonical deadlock; the run must return a
// diagnostic that names the blocked pair instead of hanging forever.
func TestWatchdogNamesMutuallyBlockedRanks(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := sim.Run(2, sim.Cost{}, func(r *sim.Rank) error {
			r.Recv(1 - r.ID()) // both receive first: nobody ever sends
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mutual Recv deadlock must error")
		}
		var de *sim.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("expected a DeadlockError, got %v", err)
		}
		for _, want := range []string{"rank 0 waiting on rank 1", "rank 1 waiting on rank 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("diagnostic should contain %q: %v", want, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hang was not resolved at quiescence")
	}
}

// TestWatchdogDetectsMismatchedBcastRoot: one rank naming a different Bcast
// root is a classic SPMD bug. The pattern wedges mid-collective;
// quiescence must convert the hang into a diagnostic error.
func TestWatchdogDetectsMismatchedBcastRoot(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := sim.Run(4, sim.Cost{}, func(r *sim.Rank) error {
			w := r.World()
			root := 0
			if r.ID() == 2 {
				root = 1 // disagrees with everyone else
			}
			data := make([]float64, 3)
			if r.ID() == root {
				data = []float64{1, 2, 3}
			}
			w.Bcast(root, data)
			w.Barrier()
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mismatched Bcast root must error")
		}
		var de *sim.DeadlockError
		if !errors.As(err, &de) && !strings.Contains(err.Error(), "rank") {
			t.Errorf("expected a diagnostic naming ranks, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hang was not resolved at quiescence")
	}
}

type injected struct{}

func (injected) Error() string { return "injected failure" }

var errInjected = injected{}
