//go:build race

package sim

import "runtime"

// pull is iter.Pull's protocol — resume until the next yield, a panic or
// runtime.Goexit in seq raised again in the caller of next — on a
// goroutine handed control over channels. Under the race detector a
// runtime coroutine never releases its race context (Go 1.24), about 5 KiB
// for each one, and a test suite starts millions of closure ranks; an
// ordinary goroutine releases its context when it exits.
func pull(seq func(yield func(struct{}) bool)) func() (struct{}, bool) {
	resume, suspend := make(chan struct{}), make(chan any)
	started, ended := false, false
	return func() (struct{}, bool) {
		switch {
		case ended:
			return struct{}{}, false
		case started:
			resume <- struct{}{}
		default:
			started = true
			go func() {
				end := any(goexitPull{}) // unless seq returns or panics
				defer func() {
					if rec := recover(); rec != nil {
						end = rec
					}
					suspend <- end
				}()
				seq(func(struct{}) bool {
					suspend <- yieldPull{}
					<-resume
					return true
				})
				end = nil
			}()
		}
		end := <-suspend
		if _, ok := end.(yieldPull); ok {
			return struct{}{}, true
		}
		ended = true
		switch end.(type) {
		case nil:
		case goexitPull:
			runtime.Goexit()
		default:
			panic(end)
		}
		return struct{}{}, false
	}
}

// yieldPull and goexitPull are what seq's goroutine hands back when it
// yields and when it called runtime.Goexit.
type (
	yieldPull  struct{}
	goexitPull struct{}
)
