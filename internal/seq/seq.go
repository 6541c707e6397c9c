// Package seq implements the paper's sequential machine model
// (Figure 1(a)): a processor with M words of fast memory in front of an
// unbounded slow memory, moving data in messages of at most m words. It
// counts the words and messages transferred and the flops executed, so the
// sequential communication lower bounds of Eq. 3–4 can be checked against
// a real blocked matmul.
//
// The machine is deliberately explicit: algorithms must Load data into
// fast memory before computing on it and Store results back; exceeding the
// fast-memory capacity is a programming error that panics. This keeps the
// measured W honest — nothing is cached implicitly.
package seq

import (
	"fmt"

	"perfscale/internal/matrix"
)

// Machine is a two-level sequential machine with tracked transfers.
type Machine struct {
	// FastWords is M, the fast-memory capacity in words.
	FastWords int
	// MaxMsgWords is m, the largest message between the levels; zero means
	// unlimited.
	MaxMsgWords int

	used  int
	stats Stats
}

// Stats holds the counted costs of a sequential execution.
type Stats struct {
	// Flops is F.
	Flops float64
	// Words is W: total words moved between slow and fast memory
	// (loads + stores).
	Words float64
	// Msgs is S: transfers, counting ⌈k/m⌉ per k-word operation.
	Msgs float64
	// PeakFast is the high-water mark of fast-memory residency.
	PeakFast int
}

// New returns a machine with M words of fast memory and message limit m.
func New(fastWords, maxMsg int) (*Machine, error) {
	if fastWords <= 0 {
		return nil, fmt.Errorf("seq: fast memory must be positive, got %d", fastWords)
	}
	if maxMsg < 0 || (maxMsg > 0 && maxMsg > fastWords) {
		return nil, fmt.Errorf("seq: message limit %d invalid for fast memory %d", maxMsg, fastWords)
	}
	return &Machine{FastWords: fastWords, MaxMsgWords: maxMsg}, nil
}

// Stats returns the accumulated counters.
func (mc *Machine) Stats() Stats { return mc.stats }

func (mc *Machine) transfers(k int) float64 {
	if k == 0 {
		return 0
	}
	if mc.MaxMsgWords <= 0 {
		return 1
	}
	return float64((k + mc.MaxMsgWords - 1) / mc.MaxMsgWords)
}

// Load brings k words into fast memory, charging W += k and the message
// count; panics if the fast memory would overflow (the algorithm is
// violating its own blocking).
func (mc *Machine) Load(k int) {
	if k < 0 {
		panic("seq: negative load")
	}
	if mc.used+k > mc.FastWords {
		panic(fmt.Sprintf("seq: fast memory overflow: %d + %d > %d", mc.used, k, mc.FastWords))
	}
	mc.used += k
	if mc.used > mc.stats.PeakFast {
		mc.stats.PeakFast = mc.used
	}
	mc.stats.Words += float64(k)
	mc.stats.Msgs += mc.transfers(k)
}

// Store writes k words back to slow memory and releases them from fast
// memory, charging W += k.
func (mc *Machine) Store(k int) {
	mc.evict(k)
	mc.stats.Words += float64(k)
	mc.stats.Msgs += mc.transfers(k)
}

// Discard releases k words of fast memory without writing back (clean
// data), costing nothing.
func (mc *Machine) Discard(k int) { mc.evict(k) }

func (mc *Machine) evict(k int) {
	if k < 0 {
		panic("seq: negative eviction")
	}
	if k > mc.used {
		panic(fmt.Sprintf("seq: evicting %d words with only %d resident", k, mc.used))
	}
	mc.used -= k
}

// Compute charges flops floating-point operations on resident data.
func (mc *Machine) Compute(flops float64) {
	if flops < 0 {
		panic("seq: negative flops")
	}
	mc.stats.Flops += flops
}

// BlockedMatMul computes C = A·B with square blocking of size bs chosen to
// fit three blocks in fast memory, performing the actual arithmetic and
// charging every transfer: the cache-aware algorithm that attains the
// Hong–Kung bound W = Θ(n³/√M).
func BlockedMatMul(mc *Machine, a, b *matrix.Dense, bs int) (*matrix.Dense, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return nil, fmt.Errorf("seq: need equal square operands")
	}
	n := a.Rows
	if bs <= 0 || n%bs != 0 {
		return nil, fmt.Errorf("seq: block size %d must divide n = %d", bs, n)
	}
	if 3*bs*bs > mc.FastWords {
		return nil, fmt.Errorf("seq: three %d² blocks exceed fast memory %d", bs, mc.FastWords)
	}
	c := matrix.New(n, n)
	nb := n / bs
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			mc.Load(bs * bs) // C block accumulator
			cBlk := c.Block(i*bs, j*bs, bs, bs)
			for k := 0; k < nb; k++ {
				mc.Load(bs * bs) // A block
				mc.Load(bs * bs) // B block
				aBlk := a.Block(i*bs, k*bs, bs, bs)
				bBlk := b.Block(k*bs, j*bs, bs, bs)
				matrix.MulAdd(cBlk, aBlk, bBlk)
				mc.Compute(matrix.MulFlops(bs, bs, bs))
				mc.Discard(2 * bs * bs)
			}
			c.SetBlock(i*bs, j*bs, cBlk)
			mc.Store(bs * bs)
		}
	}
	return c, nil
}
