package sim

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Per-pair queues are wired on demand. A dense p×p matrix of queues caps a
// run at modest p — p = 4096 would wire ~16.7M of them before the first
// flop — while the algorithms in this repository touch only O(log p)
// distinct peers per rank (grid neighbours, tree parents/children, fiber
// partners). So each rank owns a mailbox, a small mutex-protected table
// (peerTable) from sender id to the pair's FIFO queue, and the pair is
// registered there on first contact. Memory then scales with the number of
// *active* communication pairs, O(p·log p) for the 2.5D/CAPS/FFT patterns
// here, instead of p².
//
// A pair that only conducted collectives use (comm_ff.go) never queues a
// message: its entry holds the shared, always-empty idleRing. The first
// point-to-point send or receive on the pair swaps in a real evRing under
// the mailbox lock. The sender memoizes its real rings (Rank.out), so it
// takes the receiver's lock once per peer; the receiver looks its pairs up
// in its own mailbox, whose lock other ranks take only on first contact
// and conductors only while the receiver is parked.
//
// How queues are allocated is invisible to the simulation's semantics:
// virtual clocks, counters and fault decisions depend only on the program's
// communication pattern and the arrival stamps carried inside messages.

// evRing is one ordered src→dst FIFO: a growable single-producer
// single-consumer ring whose storage follows what the pair actually queues.
// The engine never blocks a thread on a pair — a full or empty queue parks
// the rank instead — so the fast path is two atomic cursors and no lock. The
// SPSC invariant holds because a pair has exactly one sending and one
// receiving rank, a rank executes on one carrier or worker at a time, and conducted
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
// is allocated by the first enqueue, and the producer appends one of twice
// the length — capped at the next power of two above sem — only when
// tail−head reaches the current segment's length. A stale head can only overstate that difference, so the
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

// idleRing is the queue of every pair registered by conducted traffic
// alone. It is never pushed to (its semantic capacity is 0), so it stays
// empty and any number of goroutines may read it.
var idleRing evRing

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

// peerTable maps a peer rank id to the pair's ring: open addressing with
// linear probing over a power-of-two slot array, grown at 3/4 load. A
// rank's out table and every mailbox use it. Keys are rank ids (0
// included); a nil ring marks an empty slot, and nothing is ever deleted.
// The zero value is an empty table.
type peerTable struct {
	slots []peerSlot
	shift uint8 // 32 − log₂(len(slots)): the hash keeps the product's top bits
	n     int32
}

type peerSlot struct {
	key int32
	q   *evRing
}

// peerTableMin is the first slot array's length. At 3/4 load it holds six
// peers: a 2.5D Cannon rank receives from four.
const peerTableMin = 8

// home is key k's first probe: Fibonacci hashing spreads the strided ids of
// grid neighbours and tree partners over the slots.
func (t *peerTable) home(k int32) int { return int(uint32(k) * 0x9E3779B9 >> t.shift) }

// find returns the slot holding peer k, or the empty slot where k would go.
// The table must have slots.
func (t *peerTable) find(k int) *peerSlot {
	mask := len(t.slots) - 1
	for i := t.home(int32(k)); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.q == nil || s.key == int32(k) {
			return s
		}
	}
}

// get returns the ring stored for peer k, or nil.
func (t *peerTable) get(k int) *evRing {
	if len(t.slots) == 0 {
		return nil
	}
	return t.find(k).q
}

// set stores q for peer k, replacing the ring stored for k, if any.
func (t *peerTable) set(k int, q *evRing) {
	if len(t.slots) > 0 {
		if s := t.find(k); s.q != nil {
			s.q = q
			return
		}
	}
	if 4*(int(t.n)+1) > 3*len(t.slots) {
		t.grow()
	}
	*t.find(k) = peerSlot{key: int32(k), q: q}
	t.n++
}

func (t *peerTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = peerTableMin
	}
	t.slots = make([]peerSlot, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.q != nil {
			*t.find(int(s.key)) = s
		}
	}
}

// mailbox holds one rank's incoming per-pair queues, keyed by sender id.
// Every lookup and registration takes the mutex (see the file comment for
// who contends for it).
type mailbox struct {
	mu     sync.Mutex
	queues peerTable
}

// pairOf returns the FIFO queue for the ordered pair src→dst, creating it
// on first point-to-point use, or in place of the idleRing a conducted
// collective registered. The table entry itself is the unit the wiring
// accounting (ActivePairs) counts.
func (c *Cluster) pairOf(src, dst int) *evRing {
	mb := &c.mail[dst]
	mb.mu.Lock()
	q := mb.queues.get(src)
	if q == nil || q == &idleRing {
		q = &evRing{}
		q.init(c.bufCap)
		mb.queues.set(src, q)
	}
	mb.mu.Unlock()
	return q
}

// wire returns the queue a conducted message src→dst traverses: the pair's
// ring if point-to-point traffic created one, else the idleRing, which it
// registers on first contact so ActivePairs counts the pair.
func (c *Cluster) wire(src, dst int) *evRing {
	mb := &c.mail[dst]
	mb.mu.Lock()
	q := mb.queues.get(src)
	if q == nil {
		q = &idleRing
		mb.queues.set(src, q)
	}
	mb.mu.Unlock()
	return q
}

// queueTo returns the rank's outgoing queue towards dst, memoizing the
// lookup so the mailbox lock is taken at most once per peer.
func (r *Rank) queueTo(dst int) *evRing {
	if q := r.out.get(dst); q != nil {
		return q
	}
	q := r.cluster.pairOf(r.id, dst)
	r.out.set(dst, q)
	return q
}

// queueFrom returns the rank's incoming queue from src, looked up in its
// own mailbox.
func (r *Rank) queueFrom(src int) *evRing { return r.cluster.pairOf(src, r.id) }

// ActivePairs reports how many ordered communication pairs were actually
// wired during the run — the quantity the wiring's memory scales with.
// Call it after Run returns.
func (c *Cluster) ActivePairs() int {
	n := 0
	for i := range c.mail {
		mb := &c.mail[i]
		mb.mu.Lock()
		n += int(mb.queues.n)
		mb.mu.Unlock()
	}
	return n
}
