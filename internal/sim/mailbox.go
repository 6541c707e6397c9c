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
// partners). So each rank owns a mailbox, a small table (peerTable) from
// sender id to the pair's FIFO queue, and the pair is registered there on
// first contact. Memory then scales with the number of *active*
// communication pairs, O(p·log p) for the 2.5D/CAPS/FFT patterns here,
// instead of p².
//
// A pair that only conducted collectives use (comm_ff.go) never queues a
// message: its entry holds the shared, always-empty idleRing. The first
// point-to-point send or receive on the pair swaps in a real evRing.
//
// A lookup that hits takes no lock: the table is published through an
// atomic pointer and read with atomic loads (peerTable.get). Registrations
// — a first contact, the idle→real swap — take the mailbox mutex and probe
// again under it. Growth copies the slots into a new table and publishes it
// whole, so a reader still on the old one stays correct: an entry never
// moves or disappears in place. The one in-place change is the swap, made
// by pairOf for whoever owns an end of the pair: its sender or receiver,
// or the engine or a conductor while that end is parked. A conductor calls
// wire on a pair only while both ends are parked, and the engine mutex
// orders every swap they made before the conduct, so a lock-free wire
// never returns the idleRing in front of queued point-to-point traffic.
// Both ends look the pair up in the receiver's mailbox: a sender-side memo
// table cost a table per rank and no longer saves a lock.
//
// How queues are allocated is invisible to the simulation's semantics:
// virtual clocks, counters and fault decisions depend only on the program's
// communication pattern and the arrival stamps carried inside messages.

// evRing is one ordered src→dst FIFO: a growable single-producer
// single-consumer ring whose storage follows what the pair actually queues.
// The engine never blocks a thread on a pair — a full or empty queue parks
// the rank instead — so the fast path is two atomic cursors and no lock. The
// SPSC invariant holds because a pair has exactly one sending and one
// receiving rank, a rank executes on one worker at a time, and conducted
// collectives (comm_ff.go) touch a member's pairs only while that member is
// parked — every ownership handoff goes through the engine lock.
//
// The producer owns tail and tseg, the consumer owns head and hseg; each
// side reads the other's cursor atomically. Go's atomics are sequentially
// consistent, so everything the producer wrote before tail.Store — the
// slot, a new segment, the link to it — is visible to a consumer that loads
// the new tail (and symmetrically for slot reuse after head.Store).
//
// sem is the semantic capacity (Cost.chanCap): push fails at exactly sem
// queued messages whatever the storage holds, so parks, quiescence and
// deadlock verdicts never depend on how a queue is stored. Storage is a
// chain of power-of-two segments, indexed by the global cursors. The first
// is part of the ring — evSegMin slots, fewer if sem is smaller — so a pair
// that never queues more than that is one allocation, cursors and slots in
// the same object. The producer appends a heap segment of twice the length
// — capped at the next power of two above sem — only when tail−head
// reaches the current segment's length. A stale head can only overstate
// that difference, so the test may grow early but never lets a slot be
// overwritten: below it, slot t&mask last held cursor t−len < head, already
// consumed. A pair therefore grows at most log₂(chanCap) segments in its
// life and keeps reusing the last one; a heap segment the consumer has left
// is referenced by nobody, while the inline first one stays pinned by the
// ring (its slots are zeroed, so it pins no payload).
type evRing struct {
	head atomic.Uint32 // consumer cursor
	tail atomic.Uint32 // producer cursor
	sem  uint32        // semantic capacity (Cost.chanCap)
	lim  uint32        // longest segment: next power of two ≥ sem
	tseg *evSeg        // producer's segment
	hseg *evSeg        // consumer's segment
	// first is the chain's first segment, its buf a slice of slots. Its
	// base stays 0: only a segment the consumer moves to has its base read.
	first evSeg
	slots [evSegMin]message
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

// init sets the capacity and points both sides at the inline first
// segment; the ring must not be copied afterwards.
func (q *evRing) init(bufCap int) {
	n := uint32(1)
	for n < uint32(bufCap) {
		n <<= 1
	}
	q.sem, q.lim = uint32(bufCap), n
	q.first.buf = q.slots[:min(evSegMin, n)]
	q.tseg, q.hseg = &q.first, &q.first
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
	if n >= uint32(len(s.buf)) {
		s = q.grow(s, t)
	}
	s.buf[t&uint32(len(s.buf)-1)] = m
	q.tail.Store(t + 1)
	return true
}

// grow appends the segment that serves cursors from t on. Producer side only.
func (q *evRing) grow(s *evSeg, t uint32) *evSeg {
	n := &evSeg{base: t, buf: make([]message, min(2*uint32(len(s.buf)), q.lim))}
	s.next.Store(n)
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
// linear probing over a power-of-two slot array, grown at 3/4 load. Keys
// are rank ids (0 included); a nil ring marks an empty slot, and nothing is
// ever deleted. The zero value is an empty table.
//
// get takes no lock and may run beside a writer; set calls must be
// serialized by the caller (the mailbox mutex). Growth builds a new slot
// array and publishes it whole, and nothing writes the old one again.
type peerTable struct {
	cur atomic.Pointer[peerSlots] // nil until the first set
	n   int32                     // entries; writers only
}

// peerSlots is one published slot array.
type peerSlots struct {
	shift uint8 // 32 − log₂(len(slots)): the hash keeps the product's top bits
	slots []peerSlot
}

// peerSlot is one entry. A writer stores key before q, and a reader loads q
// before key, so a reader that sees a ring sees the key it was filed under.
type peerSlot struct {
	key atomic.Int32
	q   atomic.Pointer[evRing]
}

// firstSlots is a table's first slot array and its header in one
// allocation: most tables never grow past it.
type firstSlots struct {
	peerSlots
	buf [peerTableMin]peerSlot
}

// peerTableMin is the first slot array's length. At 3/4 load it holds six
// peers: a 2.5D Cannon rank receives from four.
const peerTableMin = 8

// home is key k's first probe: Fibonacci hashing spreads the strided ids of
// grid neighbours and tree partners over the slots.
func (s *peerSlots) home(k int32) int { return int(uint32(k) * 0x9E3779B9 >> s.shift) }

// probe returns the slot holding peer k, or the empty slot where k would
// go, and the ring it loaded from that slot. The ring is loaded once per
// slot and that value is the one returned: a second load after the key test
// could see a concurrent insert fill an empty slot under another key.
func (s *peerSlots) probe(k int32) (*peerSlot, *evRing) {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if q := sl.q.Load(); q == nil || sl.key.Load() == k {
			return sl, q
		}
	}
}

// get returns the ring stored for peer k, or nil. It takes no lock.
func (t *peerTable) get(k int) *evRing {
	s := t.cur.Load()
	if s == nil {
		return nil
	}
	_, q := s.probe(int32(k))
	return q
}

// set stores q for peer k, replacing the ring stored for k, if any.
func (t *peerTable) set(k int, q *evRing) {
	s := t.cur.Load()
	if s != nil {
		if sl, old := s.probe(int32(k)); old != nil {
			sl.q.Store(q)
			return
		}
	}
	if s == nil || 4*(int(t.n)+1) > 3*len(s.slots) {
		s = t.grow(s)
	}
	sl, _ := s.probe(int32(k))
	sl.key.Store(int32(k))
	sl.q.Store(q)
	t.n++
}

// grow publishes a slot array twice old's length holding old's entries.
func (t *peerTable) grow(old *peerSlots) *peerSlots {
	var s *peerSlots
	if old == nil {
		f := new(firstSlots)
		f.slots = f.buf[:]
		s = &f.peerSlots
	} else {
		s = &peerSlots{slots: make([]peerSlot, 2*len(old.slots))}
	}
	s.shift = uint8(32 - bits.TrailingZeros(uint(len(s.slots))))
	if old != nil {
		for i := range old.slots {
			if q := old.slots[i].q.Load(); q != nil {
				k := old.slots[i].key.Load()
				sl, _ := s.probe(k)
				sl.key.Store(k)
				sl.q.Store(q)
			}
		}
	}
	t.cur.Store(s)
	return s
}

// each calls f with every stored peer and its ring, in slot order. Call it
// with writers excluded, as set requires.
func (t *peerTable) each(f func(k int, q *evRing)) {
	s := t.cur.Load()
	if s == nil {
		return
	}
	for i := range s.slots {
		if q := s.slots[i].q.Load(); q != nil {
			f(int(s.slots[i].key.Load()), q)
		}
	}
}

// mailbox holds one rank's incoming per-pair queues, keyed by sender id.
// Lookups that hit read the table without the mutex; registrations take it
// (see the file comment).
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
	if q := mb.queues.get(src); q != nil && q != &idleRing {
		return q
	}
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
	if q := mb.queues.get(src); q != nil {
		return q
	}
	mb.mu.Lock()
	q := mb.queues.get(src)
	if q == nil {
		q = &idleRing
		mb.queues.set(src, q)
	}
	mb.mu.Unlock()
	return q
}

// queueTo returns the rank's outgoing queue towards dst, looked up in the
// receiver's mailbox.
func (r *Rank) queueTo(dst int) *evRing { return r.cluster.pairOf(r.id, dst) }

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
