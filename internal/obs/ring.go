package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"perfscale/internal/sim"
)

// ringShards is the maximum lock-striping width. Events are dealt to
// shards by a global sequence number, so shard i holds the tail of residue
// class i and the union of all shard tails covers the last-capacity global
// window (Snapshot trims the excess from shards that round up).
const ringShards = 64

type ringEntry struct {
	seq uint64
	ev  Event
}

type ringShard struct {
	mu   sync.Mutex
	buf  []ringEntry
	next int
	// Pad shards apart so neighbouring locks don't share a cache line;
	// at p = 1024 every rank is hammering these.
	_ [64]byte
}

// RingBuffer is the bounded subscriber for large runs: it keeps only the
// last Cap events, so observing a p = 16384 run costs O(window) memory
// instead of O(events). Pushes take one atomic increment plus one striped
// mutex, so every engine worker can emit concurrently without
// serialising on a single lock; use Collector when the full event stream
// is wanted.
type RingBuffer struct {
	capacity int
	mask     uint64 // len(shards)-1; shard count is a power of two
	seq      atomic.Uint64
	shards   []ringShard
}

// NewRingBuffer creates a ring holding the last capacity events.
func NewRingBuffer(capacity int) *RingBuffer {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n*2 <= ringShards && n*2 <= capacity {
		n *= 2
	}
	rb := &RingBuffer{capacity: capacity, mask: uint64(n - 1), shards: make([]ringShard, n)}
	per := (capacity + n - 1) / n
	for i := range rb.shards {
		rb.shards[i].buf = make([]ringEntry, 0, per)
	}
	return rb
}

func (rb *RingBuffer) push(e Event) {
	seq := rb.seq.Add(1) - 1
	sh := &rb.shards[seq&rb.mask]
	sh.mu.Lock()
	if len(sh.buf) < cap(sh.buf) {
		sh.buf = append(sh.buf, ringEntry{seq, e})
	} else {
		sh.buf[sh.next] = ringEntry{seq, e}
		sh.next++
		if sh.next == cap(sh.buf) {
			sh.next = 0
		}
	}
	sh.mu.Unlock()
}

// OnCompute implements sim.Observer.
func (rb *RingBuffer) OnCompute(rank int, seg sim.Segment) { rb.push(segEvent(rank, seg)) }

// OnSend implements sim.Observer.
func (rb *RingBuffer) OnSend(rank int, seg sim.Segment) { rb.push(segEvent(rank, seg)) }

// OnRecv implements sim.Observer.
func (rb *RingBuffer) OnRecv(rank int, seg sim.Segment) { rb.push(segEvent(rank, seg)) }

// OnPhase implements sim.Observer.
func (rb *RingBuffer) OnPhase(rank int, name string, at float64) {
	rb.push(Event{Kind: KindPhase, Rank: rank, Peer: -1, Start: at, End: at, Name: name})
}

// OnFault implements sim.Observer.
func (rb *RingBuffer) OnFault(ev sim.FaultEvent) { rb.push(faultEvent(ev)) }

// OnCrash implements sim.Observer.
func (rb *RingBuffer) OnCrash(ev sim.CrashEvent) { rb.push(crashEvent(ev)) }

// OnTimer implements sim.Observer.
func (rb *RingBuffer) OnTimer(ev sim.TimerEvent) { rb.push(timerEvent(ev)) }

// OnDeadlock implements sim.Observer.
func (rb *RingBuffer) OnDeadlock(ev sim.DeadlockEvent) { rb.push(deadlockEvent(ev)) }

// Snapshot returns the buffered tail, oldest first.
func (rb *RingBuffer) Snapshot() []Event {
	entries := make([]ringEntry, 0, rb.capacity)
	for i := range rb.shards {
		sh := &rb.shards[i]
		sh.mu.Lock()
		entries = append(entries, sh.buf...)
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	// Shards round their capacity up, so trim any excess beyond the window.
	if len(entries) > rb.capacity {
		entries = entries[len(entries)-rb.capacity:]
	}
	out := make([]Event, len(entries))
	for i, en := range entries {
		out[i] = en.ev
	}
	return out
}

// Total counts every event ever pushed, kept or evicted.
func (rb *RingBuffer) Total() uint64 { return rb.seq.Load() }
