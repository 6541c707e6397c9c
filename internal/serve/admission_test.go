package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLaneShedsWhenFull(t *testing.T) {
	l := newLane("test", 1, 1, 1)
	ctx := context.Background()

	release1, err := l.admit(ctx)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	// Second caller takes the single queue slot and waits.
	queuedIn := make(chan struct{})
	queuedOut := make(chan error, 1)
	go func() {
		close(queuedIn)
		release, err := l.admit(ctx)
		if err == nil {
			release()
		}
		queuedOut <- err
	}()
	<-queuedIn
	waitFor(t, func() bool { return l.queued() == 1 })

	// Third caller finds the queue full and must be shed with the typed
	// error.
	_, err = l.admit(ctx)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("third admit error = %v, want *OverloadError", err)
	}
	if oe.Lane != "test" || oe.Reason != "queue_full" || oe.RetryAfterS < 1 {
		t.Errorf("overload = %+v", oe)
	}

	release1()
	if err := <-queuedOut; err != nil {
		t.Errorf("queued admit after release: %v", err)
	}
}

func TestLaneAdmitHonorsContext(t *testing.T) {
	l := newLane("test", 1, 4, 1)
	release, err := l.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := l.admit(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued admit with expired ctx = %v, want DeadlineExceeded", err)
	}
	if got := l.queued(); got != 0 {
		t.Errorf("queue depth after abandoned wait = %d, want 0", got)
	}
}

func TestLaneRetryAfterTracksServiceTime(t *testing.T) {
	l := newLane("test", 1, 2, 1)
	for i := 0; i < 8; i++ {
		l.observeService(3.0)
	}
	// Queue of 2 ahead plus the caller, ~3s each.
	if ra := l.retryAfter(); ra < 3 || ra > 30 {
		t.Errorf("retryAfter = %d, want a few multiples of the 3s service time", ra)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
