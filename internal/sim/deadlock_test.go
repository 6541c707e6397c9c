package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// noRealTimeWait fails the test when a verdict took longer than any exact
// quiescence detection can: the engine resolves a hang the instant no rank
// can run, so a verdict that needed a real-time window is a regression.
func noRealTimeWait(t *testing.T, start time.Time) {
	t.Helper()
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("verdict took %v; quiescence is exact and must not wait on a real-time window", elapsed)
	}
}

func TestWatchdogDetectsMutualRecvDeadlock(t *testing.T) {
	start := time.Now()
	_, err := Run(2, zeroCost, func(r *Rank) error {
		// Classic mismatched point-to-point program: both ranks receive
		// first. Without quiescence detection this hangs forever.
		data := r.Recv(1 - r.ID())
		r.Send(1-r.ID(), data)
		return nil
	})
	noRealTimeWait(t, start)
	if err == nil {
		t.Fatal("mutual Recv must be detected as deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	for _, want := range []string{"rank 0 waiting on rank 1", "rank 1 waiting on rank 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic must contain %q, got %v", want, err)
		}
	}
}

func TestWatchdogDetectsSendToExitedRank(t *testing.T) {
	cost := unitCost
	cost.chanCap = 2
	start := time.Now()
	_, err := Run(3, cost, func(r *Rank) error {
		switch r.ID() {
		case 0:
			// Rank 1 exits immediately; once the 2-slot buffer fills, the
			// third send can never complete.
			for i := 0; i < 3; i++ {
				r.Send(1, []float64{float64(i)})
			}
		case 2:
			// A bystander that runs on and exits cleanly: the cluster is
			// not deadlocked, so the verdict is the per-rank one.
			for i := 0; i < 1000; i++ {
				r.Compute(1)
			}
		}
		return nil
	})
	noRealTimeWait(t, start)
	if err == nil {
		t.Fatal("send to exited rank must error, not hang")
	}
	var de *DeadlockError
	if !errors.As(err, &de) || !de.PeerExited {
		t.Fatalf("expected a send-to-exited DeadlockError, got %v", err)
	}
	if de.Rank != 0 || de.Peer != 1 {
		t.Errorf("diagnostic should blame rank 0's send to rank 1, got %+v", de)
	}
	if !strings.Contains(err.Error(), "exited rank 1") {
		t.Errorf("error should name the exited rank: %v", err)
	}
}

func TestWatchdogConfigurableChanCap(t *testing.T) {
	// With a 1-slot buffer, an 8-message burst needs the receiver to drain.
	// On one worker the sender parks on the full buffer after every message
	// and only the receiver's dequeue releases it; the run must complete.
	cost := zeroCost
	cost.chanCap = 1
	cost.Workers = 1
	res, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 8; i++ {
				r.Send(1, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 8; i++ {
			if got := r.Recv(0); got[0] != float64(i) {
				t.Errorf("message %d arrived out of order: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerRank[1].MsgsRecv != 8 {
		t.Errorf("all 8 messages must arrive, got %g", res.PerRank[1].MsgsRecv)
	}
}

func TestWatchdogNoFalsePositiveDuringRealTimeWork(t *testing.T) {
	// Rank 0 does real wall-clock work while rank 1 waits in Recv. A rank
	// that holds a worker slot is live, however long it takes, so the
	// cluster is not quiescent and no deadlock may be declared.
	_, err := Run(2, zeroCost, func(r *Rank) error {
		if r.ID() == 0 {
			time.Sleep(20 * time.Millisecond)
			r.Send(1, []float64{1})
			return nil
		}
		r.Recv(0)
		return nil
	})
	if err != nil {
		t.Fatalf("deadlock false positive: %v", err)
	}
}
