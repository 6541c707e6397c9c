package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Fast-forwarded (conducted) collectives.
//
// Run member by member, a collective like AllGather costs every member
// p−1 park/resume round trips: each ring step blocks on a receive, hands
// its worker slot away, and is woken one message later. None of that
// scheduling is observable — when no fault plan touches the run
// (Comm.ffEngine), the only things a collective changes are per-rank
// clocks, counters, payload buffers and the members' observer events, and
// all of those are pure functions of the collective's message schedule.
//
// So the engine fast-forwards: the members of one collective call
// rendezvous, the first s−1 arrivers park once, and the LAST arriver
// conducts the whole collective centrally — a dedicated per-op loop
// executes every member's schedule (send/recv/compute, exactly the ops
// the generic implementation would run, in each member's program order),
// pricing each op with the very same code the slow path uses (priceSend,
// finishRecv, Compute), which also emits the member's observer events.
// Cross-member data movement happens in dependency order, so a message is
// handed straight from the priced send to the priced receive — no per-step
// closures, no channel round trips on idle pairs. One park per member per
// collective, regardless of the number of rounds.
//
// Soundness: conducted execution is just one particular valid scheduling
// of the same program.
//
//   - Identical pricing: every conducted send/recv/compute runs the same
//     pricing functions on the same Rank state in the same per-member
//     order, so clocks, counters and each member's observer events match
//     the slow path bit for bit.
//   - Identical data flow: every conducted transfer registers the same
//     pair the slow path would wire (so ActivePairs agrees) and respects
//     its FIFO. A conducted receive takes the pair's FIFO
//     head whatever it is — if a program left stale point-to-point
//     traffic queued, the conducted message joins the back of the queue
//     and the receive consumes the stale head, exactly like the generic
//     implementation's enqueue+dequeue would. Only when the pair is idle
//     is the message handed over directly, which is indistinguishable
//     from a round trip through an empty FIFO.
//   - Rendezvous identity: members of one communicator call collectives
//     in one program order (the MPI contract the generic implementations
//     already rely on — per-pair FIFO is what keeps THEIR rounds apart),
//     so keying the rendezvous on (membership, per-membership call
//     counter, op code) matches exactly the calls that would have
//     exchanged messages.
//   - Progress: each per-op conductor executes the schedule in
//     dependency order (a receive always runs after the send it is
//     matched with), so conduction cannot stall. The one way members can
//     disagree about the schedule — mismatched call parameters, e.g. two
//     different Bcast roots — is the rendezvous' verdict (mismatch), not a
//     conduct; the live cluster would have deadlocked inside it.
//
// Composite collectives (AllReduce, Barrier, BcastLarge, ReduceLarge,
// Split) are sequences of the conducted primitives and fast-forward
// automatically.
//
// Cancellation: a cancel context (Cost.Context) does not disqualify a run;
// a conduct is cancel-safe instead. arrive checks the cancelled flag at the
// door under the engine lock — cancelSweep sweeps under the same lock, so
// no rendezvous fills after the sweep; conductOwned takes the parked
// members out of the blocked set for the conduct (opOwned), so a sweep
// landing mid-conduct skips them; Rank.conducted keeps the conductor from
// unwinding on a member's record; woken members abort at their next
// instrumented op. Who owns a member's Rank, by its engine state:
//
//	running (opRunning)                      its carrier or worker; the sweep skips it
//	stepped, arrived, wait not yet recorded  its worker until the rendezvous fills,
//	  (opRunning)                            then the conductor; the sweep skips it
//	parked, rendezvous unfilled (opBlocked*) nobody; the sweep resumes it
//	parked, being conducted (opOwned)        the conductor; the sweep skips it
//	conducted, woken, still queued           nobody; the sweep may swap in evCancel
//	picked, token not yet sent (opRunning)   nobody; the sweep skips it
//
// Buffers: a conduct allocates only what a member keeps. Everything else
// it borrows from a parked member or takes from its pooled scratch. Who owns a
// buffer the conductor touches:
//
//	a caller's data          the caller; the conduct only reads it
//	a caller's dst           the caller; the conductor writes it while its
//	                         owner is parked and returns it as the result
//	a member's result        the member: fresh, or its dst; never a view of
//	                         another member's buffer or of scratch
//	wires, bufs, slab        the conduct's ffScratch: in-flight messages,
//	                         forwarded views, accumulators, packed messages;
//	                         dead when the conduct returns, which clears and
//	                         recycles it
//	a phantom                nobody: read-only, shared wherever it goes, and
//	                         never copied or combined (phantom.go)
//
// ffSendShared may therefore alias a caller's data, a result under
// construction or the slab: its receiver consumes the payload inside the
// conduct. A conducted message outlives the conduct in one case only —
// stale traffic is queued ahead of it on the pair, so it joins the FIFO —
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
	ffAllGather
	ffReduceScatter
	ffAllToAll
	ffAllToAllTree
	ffGather
	ffScatter
	// Composite collectives conducted as a single rendezvous: one park per
	// member for the whole scatter+allgather (resp. reducescatter+gather)
	// schedule instead of one per primitive.
	ffBcastLarge
	ffReduceLarge
)

// ffOpNames names the op codes in a mismatch verdict.
var ffOpNames = [...]string{"Bcast", "Reduce", "AllGather", "ReduceScatter", "AllToAll",
	"AllToAllTree", "Gather", "Scatter", "BcastLarge", "ReduceLarge"}

// ffCall is one member's arrival at a rendezvous: its rank handle (safe
// for the conductor to drive — the member is parked), its payload, and
// the op's parameters.
type ffCall struct {
	rank *Rank
	data []float64
	dst  []float64 // storage offered for the result (BcastLargeInto), or nil
	arg  int       // by (Shift) or root (Bcast/Reduce/Gather/Scatter)
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
	err     error // the mismatch verdict: no conduct runs, every member fails with it
	// conducting is set under the engine lock while the conductor owns the
	// members (conductOwned); done, once out (or err) is filled. A stepped
	// member reads done without the lock after its worker saw it set, or
	// saw member 0 exit, after which it can never be set.
	conducting bool
	done       atomic.Bool
	// left counts members that have not yet read their result; the member
	// that decrements it to zero returns the rendezvous to the pool. A
	// run conducts one rendezvous per collective call — hundreds of
	// thousands on a large 2.5D run — while only a bounded set is ever
	// live, so pooling removes three allocations per call.
	left atomic.Int32

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
	rv.need, rv.got, rv.err, rv.conducting = n, 0, nil, false
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
// A mismatch verdict panics in every member.
func (rv *ffRendezvous) take(i int) []float64 {
	out, err := rv.out[i], rv.err
	if rv.left.Add(-1) == 0 {
		putRend(rv)
	}
	if err != nil {
		panic(err)
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

// ffEngine returns the engine when this run fast-forwards collectives, nil
// when a fault plan needs them run member by member (DESIGN.md,
// "Fast-forward", records why). The plan is fixed for the run, so conducted
// and member-by-member collectives never meet in one run.
func (c *Comm) ffEngine() *eventEngine {
	if c.rank.cluster.cost.Faults == nil {
		return c.rank.cluster.eng
	}
	return nil
}

// ffRun rendezvouses one collective call and returns the caller's result.
// The first need−1 arrivers park; the last conducts.
func (e *eventEngine) ffRun(c *Comm, op uint8, call ffCall) []float64 {
	rv, last := e.arrive(c, op, call)
	if last {
		return e.conductLast(rv, op, c.me)
	}
	// Park as a blocked receive on member 0: if the collective can never
	// complete (a member exited out of an erroneous program), quiescence
	// treats us like any blocked receiver.
	r := c.rank
	for {
		if e.parkLocked(r, opBlockedRecv, c.members[0], 0) == evConducted {
			return rv.take(c.me)
		}
		// evWake: member 0 exited with the rendezvous incomplete, or an
		// unrelated wake raced the conduct — re-check, re-park.
		e.mu.Lock()
		if rv.done.Load() {
			e.mu.Unlock()
			return rv.take(c.me)
		}
		if e.exitedLocked(c.members[0]) {
			e.mu.Unlock()
			// Orphaned collective: fail like a receive on an exited
			// peer, naming the root cause. (The rendezvous is not
			// recycled on this error path.)
			return r.finishRecvOrFail(c.members[0], message{}, false)
		}
	}
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
	e.dispatch()
	e.unlockResume()
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
// member's worker parks it opOwned too (parkStep). If conduct panics (a
// program error) they rejoin the blocked set — quiescence resolves them as
// it would any orphaned collective — and mu is left released for the
// unwinding conductor's exit.
func (e *eventEngine) conductOwned(rv *ffRendezvous, op uint8, me int) {
	setOps := func(from, to uint64) {
		for i := range rv.calls {
			if rk := &e.ranks[rv.calls[i].rank.id]; i != me && rk.op == from {
				rk.op = to
			}
		}
	}
	setOps(opBlockedRecv, opOwned)
	rv.conducting = true
	e.mu.Unlock()
	done := false
	defer func() {
		if !done {
			e.mu.Lock()
			setOps(opOwned, opBlockedRecv)
			rv.conducting = false
			e.mu.Unlock()
		}
	}()
	conduct(rv, op)
	done = true
	e.mu.Lock()
	rv.conducting = false
}

// ffWire is one in-flight conducted message: the priced message plus the
// pair queue it would have traversed. Registering the pair (Cluster.wire)
// is what keeps ActivePairs in parity with the slow path; a pair no
// point-to-point traffic has used is the shared idleRing, and gets a real
// ring only if a later Send or Recv on it asks for one.
type ffWire struct {
	m message
	q *evRing
	// shared marks a no-copy send: the payload still belongs to the
	// sender, so it must be copied if the message outlives the conduct
	// (the stale-traffic enqueue in ffRecv).
	shared bool
}

// ffSend prices member rank r's send to global rank dst and returns the
// wire carrying the message toward its matched ffRecv. The receiver owns
// the payload, exactly like the generic path.
func ffSend(r *Rank, dst int, payload []float64) ffWire {
	w := ffSendShared(r, dst, payload)
	w.m.data, w.shared = private(payload), false
	return w
}

// ffSendShared is ffSend without the payload copy, for transfers whose
// receiver consumes the data inside the conduct (combines it, or copies
// its block out) instead of keeping the buffer.
func ffSendShared(r *Rank, dst int, payload []float64) ffWire {
	q := r.cluster.wire(r.id, dst)
	m, _ := r.priceSend(dst, len(payload))
	m.data = payload
	return ffWire{m: m, q: q, shared: true}
}

// ffRecv completes dst's receive of the conducted message on w from
// global rank src. When the pair is idle — no pushed-back head, nothing
// queued — the message is handed over directly; enqueuing and immediately
// dequeuing through an empty FIFO would be indistinguishable. Stale
// point-to-point traffic queued ahead of the collective is consumed
// first, with the conducted message joining the back of the queue,
// exactly the order the generic implementation's FIFO would impose.
// (The conductor acts as both endpoints here, which the SPSC ring allows:
// src and dst are parked members whose state the conductor owns.)
func ffRecv(dst *Rank, src int, w ffWire) []float64 {
	head, ok := dst.takePushback(src)
	if !ok {
		head, ok = w.q.pop()
		if !ok {
			// Nothing queued ahead of us: hand the message straight over.
			return dst.finishRecv(src, w.m)
		}
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
// combines in that member's program order (the same order the generic
// implementation executes them), batching cross-member data movement
// into dependency-ordered phases. The members' carriers are parked, so
// the conductor owns their Rank state exclusively.
func conduct(rv *ffRendezvous, op uint8) {
	arg := rv.calls[0].arg // the members agree (mismatch)
	// Conducted pricing drives parked members' Compute from the
	// conductor's goroutine: neither the cooperative yield nor the cancel
	// check may trigger there (the conductor would park on a member's
	// scheduling record, or unwind mid-conduct and strand the members).
	for i := range rv.calls {
		rv.calls[i].rank.conducted = true
	}
	rv.ffScratch = ffScratchPool.Get().(*ffScratch)
	switch op {
	case ffBcast:
		conductBcast(rv, arg, nil)
	case ffReduce:
		conductReduce(rv, arg)
	case ffAllGather:
		conductAllGather(rv)
	case ffReduceScatter:
		conductReduceScatter(rv)
	case ffAllToAll:
		conductAllToAll(rv)
	case ffAllToAllTree:
		conductAllToAllTree(rv)
	case ffGather:
		conductGather(rv, arg)
	case ffScatter:
		conductScatter(rv, arg)
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

// conductBcast mirrors Comm.Bcast's binomial tree: processing members in
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
		r := rv.calls[i].rank
		buf := ann
		low := vme & -vme
		if vme == 0 {
			low = nextPow2(p)
			if ann == nil {
				buf = rv.calls[i].data
			}
		} else {
			parent := vme & (vme - 1)
			buf = ffRecv(r, rv.members[(parent+root)%p], pend[vme])
		}
		for bit := low >> 1; bit > 0; bit >>= 1 {
			child := vme | bit
			if child != vme && child < p {
				pend[child] = ffSendShared(r, rv.members[(child+root)%p], buf)
			}
		}
		if ann == nil {
			rv.out[i] = privateInto(rv.calls[i].dst, buf)
		}
	}
}

// conductReduce mirrors Comm.Reduce's reverse binomial tree: descending
// virtual-rank order runs every sender before the partner that combines
// its contribution (a member's send is its last op).
func conductReduce(rv *ffRendezvous, root int) {
	p := len(rv.members)
	pend := rv.wireScratch() // indexed by sending member's virtual rank
	for vme := p - 1; vme >= 0; vme-- {
		i := (vme + root) % p
		r := rv.calls[i].rank
		rop := rv.calls[i].rop
		acc := private(rv.calls[i].data)
		sent := false
		for bit := 1; bit < p; bit <<= 1 {
			if vme&bit != 0 {
				// The send is the member's last op and the partner only
				// combines the contribution — the buffer never escapes.
				pend[vme] = ffSendShared(r, rv.members[((vme&^bit)+root)%p], acc)
				sent = true
				break
			}
			partner := vme | bit
			if partner < p {
				contrib := ffRecv(r, rv.members[(partner+root)%p], pend[partner])
				if len(contrib) != len(acc) {
					panic(fmt.Sprintf("sim: reduce length mismatch: %d vs %d", len(contrib), len(acc)))
				}
				r.Compute(float64(len(acc)))
				combine(rop, acc, contrib)
			}
		}
		if vme == 0 && !sent {
			rv.out[i] = acc
		}
	}
}

// conductAllGather mirrors Comm.AllGather's ring (p ≥ 2 — the wrapper
// handles p == 1 locally): per round, every member sends its current
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
			wires[i] = ffSendShared(rv.calls[i].rank, rv.members[(i+1)%p], cur[i])
		}
		for i := range rv.calls {
			prev := (i - 1 + p) % p
			v := ffRecv(rv.calls[i].rank, rv.members[prev], wires[prev])
			cur[i] = v
			k := len(rv.calls[i].data)
			owner := (i - 1 - step + 2*p) % p
			put(rv.out[i][owner*k:(owner+1)*k], v)
		}
	}
}

// conductReduceScatter mirrors Comm.ReduceScatter (p ≥ 2, divisibility
// checked by the wrapper); a member keeps its block, so it gets a private
// copy of it.
func conductReduceScatter(rv *ffRendezvous) {
	for i, blk := range ffReduceRing(rv) {
		rv.out[i] = private(blk)
	}
}

// ffReduceRing runs ReduceScatter's ring — per round, every member sends,
// then every member receives and combines — on accumulators carved from
// the scratch slab, and returns each member's reduced block as a view of
// its accumulator: dead when the conduct returns. A phantom member's
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
			wires[i] = ffSendShared(rv.calls[i].rank, rv.members[(i+1)%p], accs[i][sendBlock*k:(sendBlock+1)*k])
		}
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			prev := (i - 1 + p) % p
			incoming := ffRecv(rv.calls[i].rank, rv.members[prev], wires[prev])
			recvBlock := (i - 2 - step + 3*p) % p
			rv.calls[i].rank.Compute(float64(k))
			combine(rv.calls[i].rop, accs[i][recvBlock*k:(recvBlock+1)*k], incoming)
		}
	}
	for i := range rv.calls {
		k := len(rv.calls[i].data) / p
		accs[i] = accs[i][i*k : (i+1)*k]
	}
	return accs
}

// conductAllToAll mirrors Comm.AllToAll's direct exchange: per stride s,
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
			wires[i] = ffSendShared(rv.calls[i].rank, rv.members[dst], data[dst*k:(dst+1)*k])
		}
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			src := (i - s + p) % p
			v := ffRecv(rv.calls[i].rank, rv.members[src], wires[src])
			copy(rv.out[i][src*k:(src+1)*k], v)
		}
	}
}

// conductAllToAllTree mirrors Comm.AllToAllTree's Bruck phases: the
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
			wires[i] = ffSendShared(rv.calls[i].rank, rv.members[(i+bit)%p], send)
		}
		for i := range rv.calls {
			k := len(rv.calls[i].data) / p
			src := (i - bit + p) % p
			v := ffRecv(rv.calls[i].rank, rv.members[src], wires[src])
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

// conductGather mirrors Comm.Gather: non-roots send, then the root
// receives in ascending member order.
func conductGather(rv *ffRendezvous, root int) {
	p := len(rv.members)
	wires := rv.wireScratch()
	for j := 0; j < p; j++ {
		if j != root {
			wires[j] = ffSendShared(rv.calls[j].rank, rv.members[root], rv.calls[j].data)
		}
	}
	rr := rv.calls[root].rank
	chunk := rv.calls[root].data
	out := assembly(nil, p*len(chunk), chunk)
	put(out[root*len(chunk):(root+1)*len(chunk)], chunk)
	for j := 0; j < p; j++ {
		if j == root {
			continue
		}
		v := ffRecv(rr, rv.members[j], wires[j])
		put(out[j*len(v):(j+1)*len(v)], v)
	}
	rv.out[root] = out
}

// conductScatter mirrors Comm.Scatter (divisibility checked by the
// wrapper on the root): the root sends every chunk in ascending member
// order, then every non-root receives.
func conductScatter(rv *ffRendezvous, root int) {
	p := len(rv.members)
	data := rv.calls[root].data
	k := len(data) / p
	wires := rv.wireScratch()
	rr := rv.calls[root].rank
	for j := 0; j < p; j++ {
		if j != root {
			wires[j] = ffSend(rr, rv.members[j], data[j*k:(j+1)*k])
		}
	}
	for j := 0; j < p; j++ {
		if j == root {
			rv.out[j] = private(data[root*k : (root+1)*k])
		} else {
			rv.out[j] = ffRecv(rv.calls[j].rank, rv.members[root], wires[j])
		}
	}
}

// conductBcastLarge mirrors Comm.BcastLarge's whole schedule — one-word
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
	// The root announces the chunk size (or the fallback) exactly like the
	// generic path's one-word Bcast.
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
	rr := rv.calls[root].rank
	wires := rv.wireScratch()
	for i := 0; i < p; i++ {
		if i != root {
			wires[i] = ffSendShared(rr, rv.members[i], data[i*chunk:(i+1)*chunk])
		}
	}
	for i := 0; i < p; i++ {
		if i != root {
			rv.calls[i].data = ffRecv(rv.calls[i].rank, rv.members[root], wires[i])
		}
	}
	rv.calls[root].data = data[root*chunk : (root+1)*chunk]
	conductAllGather(rv)
}

// conductReduceLarge mirrors Comm.ReduceLarge — ring reduce-scatter, then
// a direct gather onto the root — under a single rendezvous. The reduced
// blocks go into the gather as views of the accumulators; the root's
// gathered buffer is the only thing anyone keeps. Non-root members end
// with nil, like the generic Gather.
func conductReduceLarge(rv *ffRendezvous, root int) {
	for i, blk := range ffReduceRing(rv) {
		rv.calls[i].data = blk
	}
	conductGather(rv, root)
}
