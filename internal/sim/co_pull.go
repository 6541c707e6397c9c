//go:build go1.23 && !race

package sim

import "iter"

// pull starts seq as a coroutine and returns the function that resumes it
// until its next yield: iter.Pull, whose stop the engine never needs, since
// every rank's program runs to its end.
func pull(seq iter.Seq[struct{}]) func() (struct{}, bool) {
	next, _ := iter.Pull(seq)
	return next
}
