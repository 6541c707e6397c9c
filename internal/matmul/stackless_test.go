package matmul

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"perfscale/internal/sim"
)

// sendCounter counts Send events and calls cancel at the at-th one, from
// inside the observer callback: on the stackless host that is an engine
// worker in the middle of a Step. The context's cancellation reaches the
// run on a goroutine of its own (context.AfterFunc), so the callback then
// holds its rank for a moment: the run cannot finish before the
// cancellation lands.
type sendCounter struct {
	n, at  atomic.Int64
	cancel func()
}

func (o *sendCounter) OnSend(int, sim.Segment) {
	if o.n.Add(1) == o.at.Load() {
		o.cancel()
		time.Sleep(20 * time.Millisecond)
	}
}
func (o *sendCounter) OnCompute(int, sim.Segment)   {}
func (o *sendCounter) OnRecv(int, sim.Segment)      {}
func (o *sendCounter) OnPhase(int, string, float64) {}
func (o *sendCounter) OnFault(sim.FaultEvent)       {}
func (o *sendCounter) OnTimer(sim.TimerEvent)       {}
func (o *sendCounter) OnCrash(sim.CrashEvent)       {}
func (o *sendCounter) OnDeadlock(sim.DeadlockEvent) {}

// TestStacklessCancelFromObserver cancels a p = 128 phantom
// TwoPointFiveDSUMMA (the /simulate shape) from an observer callback at
// ten points spread over the first half of its sends, on 1, 2 and 4
// workers: every run returns an error wrapping context.Canceled, and no
// worker goroutine outlives its run.
func TestStacklessCancelFromObserver(t *testing.T) {
	const n, q, c = 128, 8, 2
	a, b := Phantom(n, n), Phantom(n, n)
	base := runtime.NumGoroutine()
	cost := sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6, MaxMsgWords: 1024}
	count := &sendCounter{cancel: func() {}}
	cost.Observers = []sim.Observer{count}
	if _, err := TwoPointFiveDSUMMA(cost, q, c, a, b); err != nil {
		t.Fatal(err)
	}
	total := count.n.Load()
	for i := int64(0); i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		obs := &sendCounter{cancel: cancel}
		obs.at.Store(1 + total*(i+1)/20)
		cost.Context, cost.Observers, cost.Workers = ctx, []sim.Observer{obs}, []int{1, 2, 4}[i%3]
		_, err := TwoPointFiveDSUMMA(cost, q, c, a, b)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at send %d of %d: err = %.300v, want context.Canceled", obs.at.Load(), total, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
