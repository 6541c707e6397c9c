package sim

import (
	"context"
	"fmt"
)

// Real-time cancellation.
//
// A simulated run is CPU-bound real work: p ranks executing the SPMD
// program. When the caller abandons the run — an HTTP client hangs up, a
// deadline expires, a sweep is interrupted — the ranks must actually stop,
// not keep burning cycles into a result nobody will read. Cost.Context
// threads a context.Context into the rank runtime for exactly that:
//
//   - every instrumented operation (Compute, Send, Recv, SendRecv,
//     RecvTimeout, SendTimeout) checks a cancellation flag on entry, so a
//     rank in a compute loop aborts at its next op;
//   - the cancellation sweeps the engine once (eventEngine.cancelSweep) and
//     resumes every parked rank to unwind, so a blocked rank is released
//     immediately rather than at its next op.
//
// Cancellation is a real-time abort path: it unwinds each rank with a panic
// — on a closure's own stack, inside its coroutine — that the worker
// stepping the rank recovers; it never rewrites virtual clocks, and leaves
// the partial per-rank Stats in the Result. Run collapses the per-rank aborts
// into one error wrapping context.Cause(ctx), so errors.Is(err,
// context.Canceled) / context.DeadlineExceeded tells the caller why the run
// ended. A run without a context pays one atomic load per op.

// cancelPanic unwinds a rank whose run context was cancelled; Run recovers
// it and records a *CancelledError for the rank.
type cancelPanic struct{}

// CancelledError reports that one rank was aborted because Cost.Context was
// cancelled. Run collapses these into a single run-level error, so callers
// normally see that error (which wraps the same Cause) rather than this
// type; it is exported for completeness and for tests.
type CancelledError struct {
	// Rank is the aborted rank's id.
	Rank int
	// Cause is context.Cause of the run context at cancellation time.
	Cause error
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("sim: rank %d aborted by run cancellation: %v", e.Rank, e.Cause)
}

// Unwrap exposes the context cause to errors.Is/errors.As.
func (e *CancelledError) Unwrap() error { return e.Cause }

// cancelCheck aborts the rank if the run context has been cancelled. It is
// called (via crashCheck) on entry to every instrumented operation: one
// atomic load on the hot path. A rank being conducted (comm_ff.go) is exempt: the check would unwind the
// conductor; the member aborts at its own next operation instead.
func (r *Rank) cancelCheck() {
	if !r.conducted && r.cluster.cancelled.Load() {
		panic(cancelPanic{})
	}
}

// abort unwinds a rank the engine aborted with a deadlock diagnostic. On a cancelled run that diagnostic (a send to a peer that
// exited cancelled, a wait nobody will answer) is the cancellation seen
// second-hand — cancelled is stored before any rank can exit cancelled — so
// the rank unwinds as cancelled and Run reports the cause, not a cascade.
func (r *Rank) abort() {
	r.cancelCheck()
	panic(abortPanic{err: r.cluster.abortErr[r.id]})
}

// watchContext binds Cost.Context to the run and returns the function that
// ends the binding. Cancelling writes the cause, sets the flag (ordered
// after the cause, so a rank that sees the flag may read it) and sweeps the
// engine's parked ranks. An already-expired context cancels inline, before
// the first rank starts, so even a one-op program observes it.
func (c *Cluster) watchContext() (stop func()) {
	ctx := c.cost.Context
	if ctx == nil {
		return func() {}
	}
	cancel := func() {
		c.cancelCause = context.Cause(ctx)
		c.cancelled.Store(true)
	}
	if ctx.Err() != nil {
		cancel() // no rank has started: nobody is parked yet
		return func() {}
	}
	unbind := context.AfterFunc(ctx, func() {
		cancel()
		c.eng.cancelSweep()
	})
	return func() { unbind() }
}
