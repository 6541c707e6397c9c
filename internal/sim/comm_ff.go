package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Conducted collectives.
//
// Run member by member — each member executing its side on Send and Recv —
// the ring all-gather inside BcastLarge costs every member p−1 park/resume
// round trips, none of them observable: what a collective changes (clocks,
// counters, payloads, observer events, fault decisions keyed on each
// send's (src, dst, seq, copy)) is a pure function of its schedule. So the
// members of one collective call rendezvous, the first s−1 arrivers park
// once, and the LAST arriver conducts the whole schedule: a per-op loop
// runs every member's sends, receives and combines in that member's
// program order and in dependency order across members, pricing each with
// the code Send, Recv and Compute use (priceSend, sendFate, finishRecv,
// Compute), which also emits the member's events.
//
// Soundness — a conduct is one valid scheduling of the member-by-member
// program, which the tests keep as an oracle (collective_oracle_test.go):
//
//   - Pricing and data flow: every op runs the same pricing on the same
//     Rank state in the same per-member order, and registers the pair
//     point-to-point traffic would wire (ActivePairs agrees). A receive
//     takes its pair's FIFO head: stale point-to-point traffic queued
//     ahead is consumed first and the conducted message joins the back
//     (ffRecv); an idle pair hands it over directly.
//   - Rendezvous identity: members of one communicator call collectives in
//     one program order (the MPI contract), so keying the rendezvous on
//     (membership, per-membership call counter, op code) matches exactly
//     the calls that exchange messages. Members that disagree about the
//     schedule (two Bcast roots) get the rendezvous' mismatch verdict; the
//     members would have deadlocked inside it.
//   - Faults: under a plan each send rolls its fate (sendFate) and each
//     member's crash check (crashFire) runs before each of its ops. A
//     receive takes the first copy the network delivers, the duplicate
//     first; a second copy is absorbed, and a receive left with none fails
//     with a *MessageLostError. A member that crashes or fails is dead from
//     that op on: its sends carry their payload unpriced (ffPoisoned) and
//     their receivers fail with the exited-peer text a Recv gives; each
//     failed member panics with what it failed with when it takes its
//     result. A member that exits before arriving leaves a rendezvous that
//     can never fill: at quiescence each arrived member fails as a receive
//     from the lowest such member fails (orphanRendezvous), the verdict a
//     member-by-member receive from it would name.
//
// Cancellation: a conduct is cancel-safe. arrive checks the cancelled flag
// under the engine lock, where cancelSweep sweeps, so no rendezvous fills
// after the sweep; conductOwned takes the parked members out of the
// blocked set (opOwned), so a sweep mid-conduct skips them; Rank.conducted
// keeps the conductor from unwinding on a member's record; woken members
// abort at their next instrumented op. Who owns a member's Rank:
//
//	running (opRunning)                      its worker; the sweep skips it
//	arrived, wait not yet recorded           its worker until the rendezvous fills,
//	  (opRunning)                            then the conductor; the sweep skips it
//	parked, rendezvous unfilled (opBlocked*) nobody; the sweep resumes it
//	parked, being conducted (opOwned)        the conductor; the sweep skips it
//	conducted, woken, still queued           nobody; the sweep may swap in evCancel
//
// Buffers: a conduct allocates only what a member keeps. Everything else
// it borrows from a parked member or takes from its pooled scratch:
//
//	a caller's data          the caller; the conduct only reads it
//	a caller's dst           the caller; the conductor writes it while its
//	                         owner is parked and returns it as the result
//	a member's result        the member: fresh, or its dst; never a view of
//	                         another member's buffer or of scratch
//	wires, bufs, slab        the conduct's ffScratch, dead when it returns
//	a corrupted copy         the receiver, like a point-to-point payload
//	a phantom                nobody: read-only, shared wherever it goes, and
//	                         never copied or combined (phantom.go)
//
// A send may therefore alias a caller's data, a result under construction
// or the slab: its receiver consumes the payload inside the conduct. A
// message outlives the conduct only when stale traffic queues ahead of it,
// and that is where ffRecv turns a shared payload into a private copy.

// ffMemb identifies a communicator membership: an FNV-1a hash of the
// member list plus enough structure (size, endpoints) to make an
// accidental collision practically impossible. membID interns it, so the
// wide key is hashed once per communicator, not per call under the lock.
type ffMemb struct {
	hash        uint64
	size        int
	first, last int
}

// ffKey identifies one collective call cluster-wide: the interned
// membership, the per-membership collective counter, and the op code.
type ffKey struct {
	memb, seq uint32
	op        uint8
}

// Collective op codes for ffKey; mismatched programs (one member calls
// Bcast where another calls Reduce) land on different keys and fail at
// quiescence instead of conducting garbage.
const (
	ffBcast uint8 = iota
	ffReduce
	ffAllToAll
	ffAllToAllTree
	// Composite collectives conducted as a single rendezvous: one park per
	// member for the whole scatter+allgather (resp. reducescatter+gather)
	// schedule instead of one per primitive.
	ffBcastLarge
	ffReduceLarge
)

// ffOpNames names the op codes in a mismatch verdict or a lost message.
var ffOpNames = [...]string{"Bcast", "Reduce", "AllToAll", "AllToAllTree", "BcastLarge", "ReduceLarge"}

// ffCall is one member's arrival at a rendezvous: its rank handle (safe
// for the conductor to drive — the member is parked), its payload, and
// the op's parameters.
type ffCall struct {
	rank *Rank
	data []float64
	dst  []float64 // storage offered for the result (BcastLargeInto), or nil
	arg  int       // root, for the rooted collectives
	rop  ReduceOp
}

// ffRendezvous collects the members of one collective call. Guarded by
// eventEngine.mu until the last arriver removes it from the map; after
// that the conductor owns it exclusively.
type ffRendezvous struct {
	need    int
	got     int
	members []int
	calls   []ffCall
	out     [][]float64
	err     any // the verdict every member fails with: mismatch's, or what the conduct panicked with
	// conducting is set under the engine lock while the conductor owns the
	// members (conductOwned); done, once out (or err) is filled, or once
	// quiescence orphaned the rendezvous. A stepped member reads done
	// without the lock after its worker saw it set.
	conducting bool
	done       atomic.Bool
	// orphan is 1 + the rank that orphaned the rendezvous, else 0; an
	// orphaned one is never recycled, so a pooled one reads 0.
	orphan int32
	// left counts members that have not yet read their result; the member
	// that decrements it to zero returns the rendezvous to the pool. A
	// run conducts one rendezvous per collective call — hundreds of
	// thousands on a large 2.5D run — while only a bounded set is ever
	// live, so pooling removes three allocations per call.
	left atomic.Int32

	// faulted is set under a fault plan (conduct); op is then the
	// collective's code and fail[i] what member i panics with when it takes
	// its result, nil while it runs.
	faulted bool
	op      uint8
	fail    []any

	// The conductor's scratch, held for the conduct only (see conduct).
	*ffScratch
}

// ffScratch is what a conductor needs and no member keeps, pooled so a
// conduct allocates only what a member does keep: the in-flight wires of
// the current phase (by member, or by virtual rank in the trees), one
// working slice per member (forwarded block, accumulator), and the words
// behind them (accumulators, packed messages, the BcastLarge announcement).
// All of it is dead once the conduct returns, so it has its own pool and
// only as many exist as conductors run at once. As fields of the pooled
// rendezvous it would be held by every collective still waiting for its
// members: at p = 32,768, where 4,096 fibers wait at once, that measured
// +5 MiB of live heap and +5 % peak RSS.
type ffScratch struct {
	wires []ffWire
	bufs  [][]float64
	slab  []float64
}

// ffSlabMax is the largest slab, in words (64 KiB), a scratch takes back
// into the pool: a conduct may need megabytes, and a pool entry must not pin
// them. The tables beside it grow with the member count like calls and out.
const ffSlabMax = 8 << 10

var (
	ffRendPool    = sync.Pool{New: func() any { return new(ffRendezvous) }}
	ffScratchPool = sync.Pool{New: func() any { return new(ffScratch) }}
)

// release clears the scratch (payloads and queue handles must not leak
// into the pool) and recycles it.
func (sc *ffScratch) release() {
	clear(sc.wires)
	clear(sc.bufs)
	if cap(sc.slab) > ffSlabMax {
		sc.slab = nil
	}
	ffScratchPool.Put(sc)
}

// sized returns s with length n and unspecified contents, keeping its
// storage when the capacity suffices; never nil, like the make it replaces.
func sized[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getRend returns a cleared rendezvous sized for n members.
func getRend(n int) *ffRendezvous {
	rv := ffRendPool.Get().(*ffRendezvous)
	rv.need, rv.got, rv.err, rv.conducting, rv.faulted = n, 0, nil, false, false
	rv.done.Store(false)
	rv.calls, rv.out = sized(rv.calls, n), sized(rv.out, n)
	rv.left.Store(int32(n))
	return rv
}

// putRend zeroes the rendezvous (rank handles and payloads must not leak
// into the pool) and recycles it.
func putRend(rv *ffRendezvous) {
	clear(rv.calls)
	clear(rv.out)
	clear(rv.fail)
	rv.members = nil
	ffRendPool.Put(rv)
}

// The scratch accessors size one table for the rendezvous' members (resp.
// the slab for n words). Contents are whatever the previous phase left:
// every conductor writes an entry before it reads it.
func (rv *ffRendezvous) wireScratch() []ffWire {
	rv.wires = sized(rv.wires, len(rv.calls))
	return rv.wires
}

func (rv *ffRendezvous) bufScratch() [][]float64 {
	rv.bufs = sized(rv.bufs, len(rv.calls))
	return rv.bufs
}

func (rv *ffRendezvous) slabScratch(n int) []float64 {
	rv.slab = sized(rv.slab, n)
	return rv.slab
}

// take returns member i's result and is the counted release for rendezvous
// that went through arrive: the caller must not touch rv after this call.
// A verdict (a mismatch, or what the conduct panicked with) panics in
// every member, and a member that failed inside the conduct panics with
// what it failed with, as it would have at the failing op.
func (rv *ffRendezvous) take(i int) []float64 {
	out, fail := rv.out[i], rv.err
	if rv.faulted && fail == nil {
		fail = rv.fail[i]
	}
	if rv.left.Add(-1) == 0 {
		putRend(rv)
	}
	if fail != nil {
		panic(fail)
	}
	return out
}

// membID returns the engine's id for the communicator's membership (from
// 1; 0 means not yet interned), memoized on the Comm.
func (e *eventEngine) membID(c *Comm) uint32 {
	if c.ffID == 0 {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		for _, m := range c.members {
			h ^= uint64(m)
			h *= prime64
		}
		memb := ffMemb{hash: h, size: len(c.members), first: c.members[0], last: c.members[len(c.members)-1]}
		e.membMu.Lock()
		id, ok := e.membIDs[memb]
		if !ok {
			id = uint32(len(e.membIDs)) + 1
			e.membIDs[memb] = id
		}
		e.membMu.Unlock()
		c.ffID = id
	}
	return c.ffID
}

// conduct runs one collective call of c's members through the engine's
// rendezvous and returns the caller's result: the first need−1 arrivers
// park, and the last conducts.
func (c *Comm) conduct(op uint8, call ffCall) []float64 {
	for {
		if v, ok := c.rank.cluster.eng.ffTry(c, op, call); ok {
			return v
		}
		// Woken only by the conduct, or by orphanRendezvous.
		c.rank.park()
	}
}

// result is what a member that waited at rv takes once rv is done: its
// result, or a failed receive from the member that orphaned rv.
func (rv *ffRendezvous) result(c *Comm) []float64 {
	if rv.orphan != 0 {
		return c.rank.finishRecvOrFail(int(rv.orphan-1), message{}, false)
	}
	return rv.take(c.me)
}

// arrive registers the caller's call at its rendezvous and returns with mu
// held; last reports that the call filled it, and the caller must conduct
// (conductLast).
func (e *eventEngine) arrive(c *Comm, op uint8, call ffCall) (rv *ffRendezvous, last bool) {
	r := c.rank
	call.rank = r
	key := ffKey{memb: e.membID(c), op: op}
	i := 0
	for i < len(r.ffSeq) && r.ffSeq[i].memb != key.memb {
		i++
	}
	if i == len(r.ffSeq) {
		r.ffSeq = append(r.ffSeq, ffSeqEntry{memb: key.memb})
	}
	key.seq = r.ffSeq[i].seq
	r.ffSeq[i].seq++
	e.mu.Lock()
	if e.cancellable && e.c.cancelled.Load() {
		// Checked under mu, where cancelSweep sweeps: after the sweep no
		// rendezvous can fill, so none completes with a swept member.
		e.mu.Unlock()
		panic(cancelPanic{})
	}
	rv = e.rend[key]
	if rv == nil {
		rv = getRend(len(c.members))
		rv.members = c.members
		e.rend[key] = rv
	}
	rv.calls[c.me] = call
	rv.got++
	if rv.got < rv.need {
		return rv, false
	}
	delete(e.rend, key)
	return rv, true
}

// conductLast completes a filled rendezvous for its last arriver, member
// me: it conducts it (or records the mismatch verdict), wakes the other
// members and returns me's result. Enters with mu held, returns with it
// released.
func (e *eventEngine) conductLast(rv *ffRendezvous, op uint8, me int) []float64 {
	if rv.err = mismatch(rv, op); rv.err == nil {
		e.conductOwned(rv, op, me)
	}
	rv.done.Store(true)
	for i := range rv.calls {
		if i != me {
			e.wake(rv.calls[i].rank.id, evConducted)
		}
	}
	e.unlock()
	return rv.take(me)
}

// mismatch is the verdict on members disagreeing about the call's
// parameters (two Bcast roots): an error naming member 0 and the lowest
// member whose argument differs from it, or nil. It depends only on the
// calls, never on which member arrived last.
func mismatch(rv *ffRendezvous, op uint8) error {
	arg := rv.calls[0].arg
	for j := 1; j < len(rv.calls); j++ {
		if a := rv.calls[j].arg; a != arg {
			return fmt.Errorf("sim: collective %s called with mismatched parameters: rank %d (member 0) passed %d, rank %d (member %d) passed %d; the communication pattern deadlocks inside the collective",
				ffOpNames[op], rv.members[0], arg, rv.members[j], j, a)
		}
	}
	return nil
}

// conductOwned conducts a filled rendezvous outside the engine lock; mu
// held on entry and on return. The parked members leave the blocked set
// for the duration (opOwned), so neither cancelSweep's sweep nor a wake can
// resume a member whose Rank the conductor is writing, and a stepped
// member's worker parks it opOwned too (parkStep). A conduct that panics (a
// program error, such as members disagreeing on a payload length) leaves
// what it panicked with as the rendezvous' verdict, typed as it was, so
// every member fails with it when it takes its result: the verdict names
// no arrival order, like mismatch's.
func (e *eventEngine) conductOwned(rv *ffRendezvous, op uint8, me int) {
	for i := range rv.calls {
		if rk := &e.ranks[rv.calls[i].rank.id]; i != me && rk.op == opBlockedColl {
			rk.op = opOwned
		}
	}
	rv.conducting = true
	e.mu.Unlock()
	defer func() {
		if rec := recover(); rec != nil {
			rv.err, rv.ffScratch = rec, nil
			for i := range rv.calls {
				rv.calls[i].rank.conducted = false
			}
		}
		e.mu.Lock()
		rv.conducting = false
	}()
	conduct(rv, op)
}

// ffWire is one in-flight conducted message: the priced message plus the
// pair queue it would have traversed. Registering the pair (Cluster.wire)
// is what keeps ActivePairs in parity with point-to-point traffic; a pair
// no point-to-point traffic has used is the shared idleRing, and gets a
// real ring only if a later Send or Recv on it asks for one.
type ffWire struct {
	m message
	q *evRing
	// shared marks a no-copy send: the payload still belongs to the
	// sender, so it must be copied if the message outlives the conduct
	// (the stale-traffic enqueue in ffRecv).
	shared bool
	// fate is ffDelivered, or why no copy arrives: ffLost (dropped) or
	// ffPoisoned (the sender had died; nothing was priced or wired). The
	// payload rides along either way, so a conductor's shapes hold.
	fate uint8
}

const (
	ffDelivered uint8 = iota
	ffLost
	ffPoisoned
)

// send prices member i's send of payload to member j and returns the wire
// carrying the message toward its matched recv. It does not copy: the
// receiver consumes the payload inside the conduct (combines it, or
// copies its block out) instead of keeping the buffer. Under a fault plan
// member i's crash check comes first and the send rolls its fate as Send
// does; the receiver gets the first delivered copy, a fresh one only when
// the plan corrupts it.
func (rv *ffRendezvous) send(i, j int, payload []float64) ffWire {
	r, dst := rv.calls[i].rank, rv.members[j]
	if rv.faulted {
		return rv.sendFaulted(r, i, dst, payload)
	}
	q := r.cluster.wire(r.id, dst)
	m, _ := r.priceSend(dst, len(payload))
	m.data = payload
	return ffWire{m: m, q: q, shared: true}
}

func (rv *ffRendezvous) sendFaulted(r *Rank, i, dst int, payload []float64) ffWire {
	w := ffWire{m: message{data: payload}, shared: true}
	if rv.killed(i) {
		w.fate = ffPoisoned
		return w
	}
	w.q = r.cluster.wire(r.id, dst)
	m, start := r.priceSend(dst, len(payload))
	w.m, w.m.data = m, payload
	switch fates, n, _ := r.sendFate(dst, len(payload), m, start); {
	case n == 0:
		w.fate = ffLost
	case fates[0].corrupt:
		w.m.data, w.shared = r.payload(dst, payload, fates[0], false), false
	}
	return w
}

// recv completes member j's receive of the wire from member i and returns
// the payload. Under a fault plan member j's crash check comes first; a
// member that is dead, or fails on this receive, gets the payload unpriced.
func (rv *ffRendezvous) recv(j, i int, w ffWire) []float64 {
	if rv.faulted {
		return rv.recvFaulted(j, i, w)
	}
	return ffRecv(rv.calls[j].rank, rv.members[i], w)
}

func (rv *ffRendezvous) recvFaulted(j, i int, w ffWire) []float64 {
	dst, src := rv.calls[j].rank, rv.members[i]
	if rv.killed(j) {
		return w.m.data
	}
	if w.q == nil {
		w.q = dst.cluster.wire(src, dst.id)
	}
	if _, stale := dst.pushback[src]; w.fate != ffDelivered && !stale && w.q.length() == 0 {
		rv.fail[j] = rv.failure(j, i, w.fate)
		return w.m.data
	}
	return ffRecv(dst, src, w)
}

// compute charges member j's flops, unless a faulted run has killed it.
func (rv *ffRendezvous) compute(j int, flops float64) {
	if !rv.faulted || !rv.killed(j) {
		rv.calls[j].rank.Compute(flops)
	}
}

// killed runs member i's crash check before one of its ops on a faulted
// run and reports whether the member no longer runs: it failed earlier in
// the conduct, or its crash fires now. A dead member skips its other ops.
func (rv *ffRendezvous) killed(i int) bool {
	if rv.fail[i] != nil {
		return true
	}
	if err := rv.calls[i].rank.crashFire(); err != nil {
		rv.fail[i] = crashPanic{err: err}
		return true
	}
	return false
}

// failure is what member j fails with when the wire from member i brings no
// copy: a *MessageLostError, or the exited-peer text Recv gives.
func (rv *ffRendezvous) failure(j, i int, fate uint8) any {
	r, src := rv.calls[j].rank, rv.members[i]
	if fate == ffLost {
		return &MessageLostError{Rank: r.id, Peer: src, Op: ffOpNames[rv.op]}
	}
	status, err := r.cluster.classifyRankExit(rv.fail[i], src, nil)
	return exitedPeer(r.id, src, exitInfo{status: status, err: err})
}

// ffRecv completes dst's receive of the conducted message on w from
// global rank src. When the pair is idle — no pushed-back head, nothing
// queued — the message is handed over directly; enqueuing and immediately
// dequeuing through an empty FIFO would be indistinguishable. Stale
// point-to-point traffic queued ahead of the collective is consumed
// first, with the conducted message (if a copy was delivered) joining the
// back of the queue, exactly the order a FIFO imposes. (The conductor acts
// as both endpoints here, which the SPSC ring allows: src and dst are
// parked members whose state the conductor owns.)
func ffRecv(dst *Rank, src int, w ffWire) []float64 {
	head, ok := dst.takePushback(src)
	if !ok {
		head, ok = w.q.pop()
		if !ok {
			// Nothing queued ahead of us: hand the message straight over.
			return dst.finishRecv(src, w.m)
		}
	}
	if w.fate != ffDelivered {
		return dst.finishRecv(src, head)
	}
	// Stale traffic exists: our message outlives the conduct, so a shared
	// payload must become a private copy now (the sender reclaims its
	// buffer when the collective returns). A pushback exists only on a
	// pair some receive has given a real ring, but the idleRing must never
	// be pushed to.
	if w.q == &idleRing {
		w.q = dst.cluster.pairOf(src, dst.id)
	}
	if w.shared {
		w.m.data = private(w.m.data)
	}
	if !w.q.push(w.m) {
		// Full pair buffer: move the next head into the pushback slot —
		// it is precisely a head-of-FIFO side buffer — to make room.
		next, _ := w.q.pop()
		w.q.push(w.m)
		if dst.pushback == nil {
			dst.pushback = make(map[int]message, 2)
		}
		dst.pushback[src] = next
	}
	return dst.finishRecv(src, head)
}

// conduct executes the collective's whole message schedule directly: a
// dedicated per-op loop prices every member's sends, receives and
// combines in that member's program order, batching cross-member data
// movement into dependency-ordered phases. The other members are parked,
// so the conductor owns their Rank state exclusively. The fault
// plan is read once here: rv.faulted selects the faulted half of send,
// recv and compute.
func conduct(rv *ffRendezvous, op uint8) {
	arg := rv.calls[0].arg // the members agree (mismatch)
	// Conducted pricing drives parked members' Compute from the
	// conductor's goroutine: neither the cooperative yield nor the cancel
	// check may trigger there (the conductor would park on a member's
	// scheduling record, or unwind mid-conduct and strand the members).
	for i := range rv.calls {
		rv.calls[i].rank.conducted = true
	}
	if rv.calls[0].rank.cluster.cost.Faults != nil {
		rv.faulted, rv.op = true, op
		rv.fail = sized(rv.fail, len(rv.calls)) // cleared by putRend
	}
	rv.ffScratch = ffScratchPool.Get().(*ffScratch)
	switch op {
	case ffBcast:
		conductBcast(rv, arg, nil)
	case ffReduce:
		conductReduce(rv, arg)
	case ffAllToAll:
		conductAllToAll(rv)
	case ffAllToAllTree:
		conductAllToAllTree(rv)
	case ffBcastLarge:
		conductBcastLarge(rv, arg)
	default:
		conductReduceLarge(rv, arg)
	}
	rv.ffScratch.release()
	rv.ffScratch = nil
	for i := range rv.calls {
		rv.calls[i].rank.conducted = false
	}
}

// conductBcast runs Comm.Bcast's binomial tree: processing members in
// virtual-rank order runs every parent before its children, and each
// member's ops stay in program order (receive from parent, then send to
// children, high bit first). The one buffer is shared down every hop, and
// each member keeps its own copy of it, built in the dst it offered
// (BcastLargeInto's small-payload fallback): as many copies as copying
// sends would make, none for a phantom. A non-nil ann is BcastLarge's
// announcement: the tree carries it in place of the root's data and no
// member keeps a result.
func conductBcast(rv *ffRendezvous, root int, ann []float64) {
	p := len(rv.members)
	pend := rv.wireScratch() // indexed by receiving child's virtual rank
	for vme := 0; vme < p; vme++ {
		i := (vme + root) % p
		buf := ann
		low := vme & -vme
		if vme == 0 {
			low = nextPow2(p)
			if ann == nil {
				buf = rv.calls[i].data
			}
		} else {
			parent := vme & (vme - 1)
			buf = rv.recv(i, (parent+root)%p, pend[vme])
		}
		for bit := low >> 1; bit > 0; bit >>= 1 {
			child := vme | bit
			if child != vme && child < p {
				pend[child] = rv.send(i, (child+root)%p, buf)
			}
		}
		if ann == nil {
			rv.out[i] = privateInto(rv.calls[i].dst, buf)
		}
	}
}

// conductReduce runs Comm.Reduce's reverse binomial tree: descending
// virtual-rank order runs every sender before the partner that combines
// its contribution (a member's send is its last op).
func conductReduce(rv *ffRendezvous, root int) {
	p := len(rv.members)
	pend := rv.wireScratch() // indexed by sending member's virtual rank
	for vme := p - 1; vme >= 0; vme-- {
		i := (vme + root) % p
		rop := rv.calls[i].rop
		acc := private(rv.calls[i].data)
		sent := false
		for bit := 1; bit < p; bit <<= 1 {
			if vme&bit != 0 {
				// The send is the member's last op and the partner only
				// combines the contribution — the buffer never escapes.
				pend[vme] = rv.send(i, ((vme&^bit)+root)%p, acc)
				sent = true
				break
			}
			partner := vme | bit
			if partner < p {
				contrib := rv.recv(i, (partner+root)%p, pend[partner])
				if len(contrib) != len(acc) {
					panic(fmt.Sprintf("sim: reduce length mismatch: %d vs %d", len(contrib), len(acc)))
				}
				rv.compute(i, float64(len(acc)))
				combine(rop, acc, contrib)
			}
		}
		if vme == 0 && !sent {
			rv.out[i] = acc
		}
	}
}

// conductAllGather runs BcastLarge's ring all-gather of every member's
// block (rv.calls[i].data): per round, every member sends its current
// block, then every member receives, records and forwards.
func conductAllGather(rv *ffRendezvous) {
	p := len(rv.members)
	cur, wires := rv.bufScratch(), rv.wireScratch()
	for i := range rv.calls {
		block := rv.calls[i].data
		k := len(block)
		// The one buffer a member keeps; its own storage when it offered
		// enough (BcastLargeInto), a phantom when its block is one.
		out := assembly(rv.calls[i].dst, p*k, block)
		put(out[i*k:(i+1)*k], block)
		rv.out[i] = out
		cur[i] = block
	}
	for step := 0; step < p-1; step++ {
		for i := range rv.calls {
			// Forwarded buffers are only read: the receiver copies its
			// block into out and passes the buffer on.
			wires[i] = rv.send(i, (i+1)%p, cur[i])
		}
		for i := range rv.calls {
			prev := (i - 1 + p) % p
			v := rv.recv(i, prev, wires[prev])
			cur[i] = v
			k := len(rv.calls[i].data)
			owner := (i - 1 - step + 2*p) % p
			put(rv.out[i][owner*k:(owner+1)*k], v)
		}
	}
}

// ffReduceRing runs ReduceLarge's ring reduce-scatter — per round, every
// member sends, then every member receives and combines — on accumulators
// carved from the scratch slab, and returns each member's reduced block as
// a view of its accumulator: dead when the conduct returns. A phantom member's
// accumulator is its phantom data, which the ring never combines into.
func ffReduceRing(rv *ffRendezvous) [][]float64 {
	p := len(rv.members)
	accs, wires := rv.bufScratch(), rv.wireScratch()
	n := 0
	for i := range rv.calls {
		if data := rv.calls[i].data; !IsPhantom(data) {
			n += len(data)
		}
	}
	slab := rv.slabScratch(n)
	for i := range rv.calls {
		data := rv.calls[i].data
		if IsPhantom(data) {
			accs[i] = data
			continue
		}
		accs[i], slab = slab[:len(data):len(data)], slab[len(data):]
		copy(accs[i], data)
	}
	for step := 0; step < p-1; step++ {
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			sendBlock := (i - 1 - step + 2*p) % p
			// The block is combined into the receiver's accumulator within
			// this step; nobody retains it.
			wires[i] = rv.send(i, (i+1)%p, accs[i][sendBlock*k:(sendBlock+1)*k])
		}
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			prev := (i - 1 + p) % p
			incoming := rv.recv(i, prev, wires[prev])
			recvBlock := (i - 2 - step + 3*p) % p
			rv.compute(i, float64(k))
			combine(rv.calls[i].rop, accs[i][recvBlock*k:(recvBlock+1)*k], incoming)
		}
	}
	for i := range rv.calls {
		k := len(rv.calls[i].data) / p
		accs[i] = accs[i][i*k : (i+1)*k]
	}
	return accs
}

// conductAllToAll runs Comm.AllToAll's direct exchange: per stride s,
// every member sends block i+s, then every member receives block i−s.
func conductAllToAll(rv *ffRendezvous) {
	p := len(rv.members)
	wires := rv.wireScratch()
	for i := range rv.calls {
		data := rv.calls[i].data
		k := len(data) / p
		out := make([]float64, len(data))
		copy(out[i*k:(i+1)*k], data[i*k:(i+1)*k])
		rv.out[i] = out
	}
	for s := 1; s < p; s++ {
		for i := range rv.calls {
			data := rv.calls[i].data
			k := len(data) / p
			dst := (i + s) % p
			wires[i] = rv.send(i, dst, data[dst*k:(dst+1)*k])
		}
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			src := (i - s + p) % p
			v := rv.recv(i, src, wires[src])
			copy(rv.out[i][src*k:(src+1)*k], v)
		}
	}
}

// conductAllToAllTree runs Comm.AllToAllTree's Bruck phases: the
// local rotations are free (no pricing), the log-round exchanges are
// conducted — per bit, every member packs and sends its marked slots,
// then every member receives and unpacks.
func conductAllToAllTree(rv *ffRendezvous) {
	p := len(rv.members)
	bufs, wires := rv.bufScratch(), rv.wireScratch()
	n := 0
	for i := range rv.calls {
		data := rv.calls[i].data
		n += len(data)
		k := len(data) / p
		buf := make([]float64, len(data))
		for j := 0; j < p; j++ {
			srcBlock := (i + j) % p
			copy(buf[j*k:(j+1)*k], data[srcBlock*k:(srcBlock+1)*k])
		}
		bufs[i] = buf
	}
	// Fewer than half the slots carry any one bit, so half the payload
	// words hold a whole round's messages; the round's receive phase
	// consumes every one of them, so the next round packs over them.
	pack := rv.slabScratch(n / 2)
	for bit := 1; bit < p; bit <<= 1 {
		packed := 0
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			buf := bufs[i]
			send := pack[packed:packed]
			for j := 0; j < p; j++ {
				if j&bit != 0 {
					send = append(send, buf[j*k:(j+1)*k]...)
				}
			}
			packed += len(send)
			wires[i] = rv.send(i, (i+bit)%p, send)
		}
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			src := (i - bit + p) % p
			v := rv.recv(i, src, wires[src])
			buf := bufs[i]
			idx := 0
			for j := 0; j < p; j++ {
				if j&bit != 0 {
					copy(buf[j*k:(j+1)*k], v[idx*k:(idx+1)*k])
					idx++
				}
			}
		}
	}
	for i := range rv.calls {
		data := rv.calls[i].data
		k := len(data) / p
		out := make([]float64, len(data))
		for j := 0; j < p; j++ {
			srcMember := (i - j + p) % p
			copy(out[srcMember*k:(srcMember+1)*k], bufs[i][j*k:(j+1)*k])
		}
		rv.out[i] = out
	}
}

// conductGather runs ReduceLarge's direct gather onto the root: non-roots
// send, then the root receives in ascending member order.
func conductGather(rv *ffRendezvous, root int) {
	p := len(rv.members)
	wires := rv.wireScratch()
	for j := 0; j < p; j++ {
		if j != root {
			wires[j] = rv.send(j, root, rv.calls[j].data)
		}
	}
	chunk := rv.calls[root].data
	out := assembly(nil, p*len(chunk), chunk)
	put(out[root*len(chunk):(root+1)*len(chunk)], chunk)
	for j := 0; j < p; j++ {
		if j == root {
			continue
		}
		v := rv.recv(root, j, wires[j])
		put(out[j*len(v):(j+1)*len(v)], v)
	}
	rv.out[root] = out
}

// conductBcastLarge runs Comm.BcastLarge's whole schedule — one-word
// chunk-size announcement over a binomial bcast, root's direct scatter,
// ring all-gather — under a single rendezvous, so a member parks once for
// the composite instead of once per primitive plus once per scatter
// receive. Only the all-gather's result is kept by anyone, so nothing
// before it copies.
func conductBcastLarge(rv *ffRendezvous, root int) {
	p := len(rv.members)
	data := rv.calls[root].data
	k := -1
	if len(data) >= p && len(data)%p == 0 {
		k = len(data)
	}
	// The root announces the chunk size (or the fallback) in a one-word
	// Bcast.
	ann := rv.slabScratch(1)
	ann[0] = float64(k)
	conductBcast(rv, root, ann)
	if k < 0 {
		// Payload too small to split evenly: binomial bcast of the data,
		// each member's copy built in the dst it offered.
		conductBcast(rv, root, nil)
		return
	}
	chunk := k / p
	// Scatter: the root sends member i its chunk, in ascending member
	// order (the root's program order), then each member receives. The
	// chunks are views of the parked root's buffer and become the
	// all-gather's input blocks, which it only reads.
	wires := rv.wireScratch()
	for i := 0; i < p; i++ {
		if i != root {
			wires[i] = rv.send(root, i, data[i*chunk:(i+1)*chunk])
		}
	}
	for i := 0; i < p; i++ {
		if i != root {
			rv.calls[i].data = rv.recv(i, root, wires[i])
		}
	}
	rv.calls[root].data = data[root*chunk : (root+1)*chunk]
	conductAllGather(rv)
}

// conductReduceLarge runs Comm.ReduceLarge — ring reduce-scatter, then
// a direct gather onto the root — under a single rendezvous. The reduced
// blocks go into the gather as views of the accumulators; the root's
// gathered buffer is the only thing anyone keeps. Non-root members end
// with nil.
func conductReduceLarge(rv *ffRendezvous, root int) {
	for i, blk := range ffReduceRing(rv) {
		rv.calls[i].data = blk
	}
	conductGather(rv, root)
}
