//go:build !(linux || darwin || freebsd)

package sim

// mapPhantom allocates the phantom region on the heap where no read-only
// anonymous mapping is wired up. Nothing faults on a write there; the
// phantom tests assert the region is still all zero after their runs.
func mapPhantom(words int) (region []float64, readOnly bool) { return make([]float64, words), false }
