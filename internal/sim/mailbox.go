package sim

import (
	"sync"
	"sync/atomic"
)

// Per-pair queues are wired on demand. A dense p×p matrix of queues caps a
// run at modest p — p = 4096 would wire ~16.7M of them before the first
// flop — while the algorithms in this repository touch only O(log p)
// distinct peers per rank (grid neighbours, tree parents/children, fiber
// partners). So each rank owns a mailbox, a small mutex-protected map from
// sender id to the pair's FIFO queue, and both endpoints get-or-create the
// queue on their first Send/Recv across the pair. Memory then scales with
// the number of *active* communication pairs, O(p·log p) for the
// 2.5D/CAPS/FFT patterns here, instead of p².
//
// How queues are allocated is invisible to the simulation's semantics:
// virtual clocks, counters and fault decisions depend only on the program's
// communication pattern and the arrival stamps carried inside messages.

// evRing is one ordered src→dst FIFO: a growable single-producer
// single-consumer ring whose storage follows what the pair actually queues.
// The engine never blocks a thread on a pair — a full or empty queue parks
// the rank instead — so the fast path is two atomic cursors and no lock. The
// SPSC invariant holds because a pair has exactly one sending and one
// receiving rank, a rank executes on one carrier at a time, and conducted
// collectives (comm_ff.go) touch a member's pairs only while that member is
// parked — every ownership handoff goes through the engine lock.
//
// The producer owns tail and tseg, the consumer owns head and hseg; each
// side reads the other's cursor atomically. Go's atomics are sequentially
// consistent, so everything the producer wrote before tail.Store — the
// slot, a new segment, the link to it — is visible to a consumer that loads
// the new tail (and symmetrically for slot reuse after head.Store).
//
// sem is the semantic capacity (Cost.ChanCap): push fails at exactly sem
// queued messages whatever the storage holds, so parks, quiescence and
// deadlock verdicts never depend on how a queue is stored. Storage is a
// chain of power-of-two segments, indexed by the global cursors: the first
// is allocated by the first enqueue (pairs that only ever carry conducted
// collective traffic, handed over directly by ffRecv, never materialize
// one), and the producer appends one of twice the length — capped at the
// next power of two above sem — only when tail−head reaches the current
// segment's length. A stale head can only overstate that difference, so the
// test may grow early but never lets a slot be overwritten: below it, slot
// t&mask last held cursor t−len < head, already consumed. A pair therefore
// allocates at most log₂(ChanCap) segments in its life and keeps reusing
// the last one; a segment the consumer has left is referenced by nobody.
type evRing struct {
	head atomic.Uint32 // consumer cursor
	tail atomic.Uint32 // producer cursor
	sem  uint32        // semantic capacity (Cost.ChanCap)
	lim  uint32        // longest segment: next power of two ≥ sem
	tseg *evSeg        // producer's segment; nil until the first push
	// hseg is the consumer's segment. The producer sets it once, before the
	// tail store of the very first push; from then on only the consumer
	// touches it, and only after loading a tail that proves a message exists.
	hseg *evSeg
}

// evSeg is one segment of an evRing's chain. It serves the cursors from
// base up to the next segment's base, at slot cursor&(len(buf)−1).
type evSeg struct {
	next atomic.Pointer[evSeg] // stored by the producer before the tail store that publishes next's first slot
	base uint32
	buf  []message
}

// evSegMin is the first segment's length: the grid shifts and tree edges
// keep one or two messages in flight per pair.
const evSegMin = 2

func (q *evRing) init(bufCap int) {
	n := uint32(1)
	for n < uint32(bufCap) {
		n <<= 1
	}
	q.sem, q.lim = uint32(bufCap), n
}

// length is safe to call from either side (and from the quiesced engine).
func (q *evRing) length() int { return int(q.tail.Load() - q.head.Load()) }

// push enqueues m, failing when the semantic capacity is reached.
// Producer side only.
func (q *evRing) push(m message) bool {
	t := q.tail.Load()
	n := t - q.head.Load()
	if n >= q.sem {
		return false
	}
	s := q.tseg
	if s == nil || n >= uint32(len(s.buf)) {
		s = q.grow(s, t)
	}
	s.buf[t&uint32(len(s.buf)-1)] = m
	q.tail.Store(t + 1)
	return true
}

// grow appends the segment that serves cursors from t on. Producer side only.
func (q *evRing) grow(s *evSeg, t uint32) *evSeg {
	size := uint32(evSegMin)
	if s != nil {
		size = 2 * uint32(len(s.buf))
	}
	if size > q.lim {
		size = q.lim
	}
	n := &evSeg{base: t, buf: make([]message, size)}
	if s == nil {
		q.hseg = n
	} else {
		s.next.Store(n)
	}
	q.tseg = n
	return n
}

// pop dequeues the head message, following the chain once head reaches the
// next segment's base. Consumer side only. The slot is zeroed so the ring
// does not pin delivered payloads for the GC.
func (q *evRing) pop() (message, bool) {
	h := q.head.Load()
	if q.tail.Load() == h {
		return message{}, false
	}
	s := q.hseg
	if n := s.next.Load(); n != nil && n.base == h {
		s, q.hseg = n, n
	}
	slot := &s.buf[h&uint32(len(s.buf)-1)]
	m := *slot
	*slot = message{}
	q.head.Store(h + 1)
	return m, true
}

// mailbox holds one rank's incoming per-pair queues, keyed by sender id.
// Senders and receivers get-or-create a pair's queue under the mutex on
// first contact; after that, both sides use their rank-local cached handle
// and the lock is never touched again for the pair.
type mailbox struct {
	mu     sync.Mutex
	queues map[int]*evRing
}

// pairOf returns the FIFO queue for the ordered pair src→dst, creating it
// on first use. The map entry itself is the unit the wiring accounting
// (ActivePairs) counts.
func (c *Cluster) pairOf(src, dst int) *evRing {
	mb := &c.mail[dst]
	mb.mu.Lock()
	q := mb.queues[src]
	if q == nil {
		if mb.queues == nil {
			mb.queues = make(map[int]*evRing)
		}
		q = &evRing{}
		q.init(c.bufCap)
		mb.queues[src] = q
	}
	mb.mu.Unlock()
	return q
}

// pairCache is a two-slot MRU cache in front of a rank's out/in map. The
// hot loops of the grid algorithms alternate between exactly two peers
// (row neighbour, column neighbour), so the second slot turns nearly every
// map lookup on the steady-state path into two compares. The zero value is
// empty (nil queue pointers mark unused slots).
type pairCache struct {
	k1, k2 int
	q1, q2 *evRing
}

func (pc *pairCache) get(k int) *evRing {
	if pc.k1 == k {
		return pc.q1 // nil when the slot is unused: caller falls through
	}
	if pc.k2 == k && pc.q2 != nil {
		pc.k1, pc.k2 = k, pc.k1
		pc.q1, pc.q2 = pc.q2, pc.q1
		return pc.q1
	}
	return nil
}

func (pc *pairCache) put(k int, q *evRing) {
	pc.k1, pc.k2 = k, pc.k1
	pc.q1, pc.q2 = q, pc.q1
}

// queueTo returns the rank's outgoing queue towards dst, memoizing the
// lookup so the mailbox lock is taken at most once per peer.
func (r *Rank) queueTo(dst int) *evRing {
	if q := r.outC.get(dst); q != nil {
		return q
	}
	if q, ok := r.out[dst]; ok {
		r.outC.put(dst, q)
		return q
	}
	if r.out == nil {
		r.out = make(map[int]*evRing)
	}
	q := r.cluster.pairOf(r.id, dst)
	r.out[dst] = q
	r.outC.put(dst, q)
	return q
}

// queueFrom returns the rank's incoming queue from src, memoized like
// queueTo.
func (r *Rank) queueFrom(src int) *evRing {
	if q := r.inC.get(src); q != nil {
		return q
	}
	if q, ok := r.in[src]; ok {
		r.inC.put(src, q)
		return q
	}
	if r.in == nil {
		r.in = make(map[int]*evRing)
	}
	q := r.cluster.pairOf(src, r.id)
	r.in[src] = q
	r.inC.put(src, q)
	return q
}

// ActivePairs reports how many ordered communication pairs were actually
// wired during the run — the quantity the wiring's memory scales with.
// Call it after Run returns.
func (c *Cluster) ActivePairs() int {
	n := 0
	for i := range c.mail {
		mb := &c.mail[i]
		mb.mu.Lock()
		n += len(mb.queues)
		mb.mu.Unlock()
	}
	return n
}
