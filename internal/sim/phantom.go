package sim

import (
	"fmt"
	"unsafe"
)

// Phantom payloads.
//
// Eqs. 1–2 price counts, never values: a send costs αt·⌈k/m⌉ + βt·k
// whatever its k words hold, and Compute charges the flops it is told. A
// run that wants only counters, clocks and energy can therefore carry
// phantoms — slices with a length but no values — and skip the arithmetic
// that would fill them. Every phantom is a view of one read-only region of
// zeros mapped outside the Go heap (phantom_mmap.go), so it costs no
// allocation and no collector work, and a stray write faults instead of
// corrupting another run.
//
// The runtime prices a phantom by its length exactly as it prices a real
// payload — same counters, same stamps, same observer segments, same pair
// queues — and treats it as immutable: it is never copied (sharing a value
// nobody can write is indistinguishable from copying it) and never
// combined (a reduction onto a phantom accumulator charges its flops and
// leaves it a phantom). A collective result assembled from phantom blocks
// is a phantom. Reading one yields zeros, so a real buffer may still take
// a phantom's contribution.

// PhantomWords is the length of the phantom region and so the largest
// phantom payload: 2²⁴ words, the operand of the largest /simulate run
// (n = 4096). The region is address space, not memory — no page of it is
// ever written, and none is read on the payload-free path.
const PhantomWords = 1 << 24

var (
	// phantomReadOnly reports whether a write to the region faults.
	phantomRegion, phantomReadOnly = mapPhantom(PhantomWords)
	phantomBase                    = uintptr(unsafe.Pointer(unsafe.SliceData(phantomRegion)))
)

// Phantom returns a k-word phantom payload: a read-only view of zeros that
// every collective and point-to-point operation prices like any other
// k-word slice but never copies or combines. It panics when k exceeds
// PhantomWords.
func Phantom(k int) []float64 {
	if k < 0 || k > PhantomWords {
		panic(fmt.Sprintf("sim: phantom payload of %d words exceeds the %d-word phantom region", k, PhantomWords))
	}
	return phantomRegion[:k:k]
}

// IsPhantom reports whether s is a phantom payload or a view of one. An
// empty slice with no capacity holds nothing either way and reports false.
func IsPhantom(s []float64) bool {
	return cap(s) > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(s)))-phantomBase < PhantomWords*8
}

// private returns a buffer with src's contents that its receiver may keep:
// a fresh copy, or src itself when it is a phantom.
func private(src []float64) []float64 { return privateInto(nil, src) }

// privateInto is private building the copy in dst's storage when its
// capacity suffices (append-style: use the result).
func privateInto(dst, src []float64) []float64 {
	if IsPhantom(src) {
		return src
	}
	out := storage(dst, len(src))
	copy(out, src)
	return out
}

// assembly returns an n-word buffer to assemble blocks like block into: a
// phantom when block is one, else dst's storage or a fresh slice.
func assembly(dst []float64, n int, block []float64) []float64 {
	if IsPhantom(block) {
		return Phantom(n)
	}
	return storage(dst, n)
}

// storage is sized for offered result storage, which a phantom cannot be.
func storage(dst []float64, n int) []float64 {
	if IsPhantom(dst) {
		dst = nil
	}
	return sized(dst, n)
}

// put copies src into dst unless dst is a phantom, which has no values to
// write.
func put(dst, src []float64) {
	if !IsPhantom(dst) {
		copy(dst, src)
	}
}

// combine applies op unless acc is a phantom; the caller charges the
// combine's flops either way.
func combine(op ReduceOp, acc, contrib []float64) {
	if !IsPhantom(acc) {
		op(acc, contrib)
	}
}
