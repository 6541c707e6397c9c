//go:build linux || darwin || freebsd

package sim

import (
	"syscall"
	"unsafe"
)

// mapPhantom maps the phantom region: anonymous, private and PROT_READ, so
// it is address space the collector never sees (the GC paces on heap size,
// and a heap array of zeros would space out every numeric run's cycles),
// no page is resident until read, and a write faults (readOnly). Should
// the kernel refuse the mapping, the region falls back to the heap like on
// other systems.
func mapPhantom(words int) (region []float64, readOnly bool) {
	b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]float64, words), false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), words), true
}
