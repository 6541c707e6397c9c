package sim

import "fmt"

// Closure ranks (DESIGN §12). An SPMD closure's stack must live somewhere,
// so Run hosts each closure rank as a coroutine (pull) that the workers
// step like any Stepper: coRank.Step resumes the closure until it
// parks, yields or returns. A blocking operation is its Try form repeated:
// while the Try call fails, the closure parks (Rank.park) — it yields to
// its worker with the wait recorded in its stepState, and the worker parks
// the rank (parkStep) unless the wait already holds. The resume reason
// comes back inside the coroutine, so a cancel or abort unwinds on the
// closure's own stack and runs its defers; a panic leaves through the
// worker's Step call, where stepOnce classifies it like a Stepper's.

// coRank is a closure rank's program: fn run as a coroutine.
type coRank struct {
	fn   func(*Rank) error
	err  error // what fn returned
	next func() (struct{}, bool)
	// yield suspends the coroutine and returns when the next Step resumes
	// it; kind is the reason that Step resumed it with.
	yield func(struct{}) bool
	kind  evKind
}

// Step resumes the closure; the first Step creates its coroutine.
func (co *coRank) Step(r *Rank) (bool, error) {
	if co.next == nil {
		co.next = pull(func(yield func(struct{}) bool) {
			co.yield = yield
			co.err = co.fn(r)
		})
	}
	_, more := co.next()
	return !more, co.err
}

// park suspends closure rank r on the wait its last Try call recorded in
// r.step (none: a yield to the back of the run queue) and returns the
// reason the engine resumed it with, after unwinding the rank here when
// that reason is a cancel or an abort. A Stepper has no stack to park.
func (r *Rank) park() evKind {
	co := r.step.co
	if co == nil {
		panic(fmt.Sprintf("sim: rank %d is a Stepper and must not block: use the Try form of the operation", r.id))
	}
	co.yield(struct{}{})
	switch co.kind {
	case evCancel:
		panic(cancelPanic{})
	case evAbort:
		r.abort()
	}
	return co.kind
}
