package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// The event engine: the simulator's execution backend.
//
// Every rank is hosted the same way: a small pool of worker goroutines
// (Cost.Workers) pops runnable ranks off one run queue and steps them
// (step.go). A Stepper (RunSteps) keeps its state in its own fields; a
// closure rank (Run) is a coroutine whose stack the worker resumes (co.go).
// When a rank would block (empty receive queue, full send buffer, a
// collective rendezvous), it records what it waits for and hands control
// back to its worker, which parks it; the engine queues it again exactly
// when the awaited condition holds, never as a poll. Runnable ranks wait in
// one ring of rank ids (runQueue); a woken rank joins its head.
//
// Three properties follow:
//
//   - blocking costs one short critical section and no channel operation:
//     under mu the worker only records the wait and pops the next rank, and
//     an idle worker is signalled after the unlock (unlock), so a second
//     worker contends for a few stores, never a channel send;
//   - quiescence is exact: the engine knows the instant the run queue is
//     empty and every live rank is parked, so deadlock detection and
//     virtual-timer firing (timer.go) are immediate and deterministic, never
//     a real-time window;
//   - collectives are conducted: a collective's whole message schedule
//     runs centrally in its last-arriving member, in one pass (comm_ff.go),
//     under any fault plan, observer or cancel context, so a member parks
//     once per collective instead of once per round.
//
// Results do not depend on the schedule: virtual clocks and counters are
// pure functions of the program's per-pair FIFO message order and the
// arrival stamps carried in messages, never of which rank happened to run
// when or on how many workers, and fault decisions are keyed on
// (seed, src, dst, seq, clock) alone. The conformance sweep pins the bits
// against committed digests (internal/conformance, golden family).

// evKind is the reason a parked rank was resumed.
type evKind uint8

const (
	// evWake: re-examine your wait — a message arrived, buffer space
	// opened, or the awaited peer exited. The resumed operation re-checks
	// its conditions in a fixed priority order (message, peer exit,
	// expiry), so the outcome depends only on virtual state.
	evWake evKind = iota
	// evTimerFire: the rank's virtual deadline was the earliest armed
	// timer at quiescence (timer.go rules).
	evTimerFire
	// evAbort: the engine filled abortErr[id] (deadlock, send to exited
	// peer); the rank unwinds with abortPanic (Rank.abort).
	evAbort
	// evCancel: the run context was cancelled; the rank unwinds with
	// cancelPanic.
	evCancel
	// evConducted: the rank's collective was conducted by its last
	// arriver; the result is ready (comm_ff.go).
	evConducted
)

// evRank is the engine's per-rank scheduling record. All fields are
// guarded by eventEngine.mu except watch. Padded to one cache line, so a
// sender polling one rank's watch word never shares a line with a
// neighbour's locked fields.
type evRank struct {
	// op/peer/deadline form the wait record while parked (op values from
	// deadlock.go; opRunning while executing or runnable, opOwned while a
	// conductor owns a parked member, opExited after the rank returns).
	// deadline is the armed virtual deadline of a timed operation, 0
	// otherwise.
	op       uint64
	peer     int32
	runnable bool
	kind     evKind
	deadline float64
	// clock is the rank's virtual clock when it last parked or yielded;
	// yieldIfBehind compares the queue head's against its own.
	clock float64
	// rank is set from the rank's first dispatch to its exit: it is how a
	// worker finds the rank, and whose last timeline segment a deadlock
	// snapshot reports (snapshots are taken at quiescence, when every
	// parked Rank is still).
	rank *Rank
	// watch is the lock-free mirror of the (op, peer) wait record for the
	// notifyEnqueue/notifyDequeue prechecks: peer<<2 | watchRecv/watchSend
	// while this rank is parked on a pair operation, 0 otherwise. parkStep
	// publishes it (sequentially consistent) BEFORE its final queue
	// re-check; a sender reads it AFTER its enqueue. One of the two
	// therefore always observes the other — the classic store/load
	// protocol — so a miss on both sides is impossible and senders skip
	// the engine lock entirely on the overwhelmingly common case of an
	// unwatched pair.
	watch atomic.Uint64
	_     [16]byte
}

// watch classes (low two bits of evRank.watch).
const (
	watchRecv uint64 = 1
	watchSend uint64 = 2
)

// watchWord encodes a park's wait record for the lock-free precheck. A
// collective's wait encodes to 0, which no notify carries: a notify that
// raced its rank's earlier receive from member 0 must not wake it there.
func watchWord(op uint64, peer int) uint64 {
	class := watchRecv
	switch op {
	case opBlockedSend, opBlockedSendTimer:
		class = watchSend
	case opBlockedColl:
		return 0
	}
	return uint64(peer)<<2 | class
}

// runQueue is the engine's run queue: a ring of runnable rank ids, popped
// at the head. The runnable flag keeps a rank from being queued twice, so p
// slots always suffice and push, pushFront and pop are O(1) stores to one
// small array. Pop order is free to choose: Results depend only on per-pair
// FIFO order and arrival stamps (see the header). A woken rank goes to the
// head (wake), so a worker steps the rank whose message it just wrote
// while that ring and rank are still in cache; the first wave and yields
// queue at the tail, in arrival order.
type runQueue struct {
	ids     []int32
	head, n int
}

func (q *runQueue) push(id int32) {
	i := q.head + q.n
	if i >= len(q.ids) {
		i -= len(q.ids)
	}
	q.ids[i] = id
	q.n++
}

func (q *runQueue) pushFront(id int32) {
	if q.head--; q.head < 0 {
		q.head = len(q.ids) - 1
	}
	q.ids[q.head] = id
	q.n++
}

func (q *runQueue) pop() int32 {
	id := q.ids[q.head]
	if q.head++; q.head == len(q.ids) {
		q.head = 0
	}
	q.n--
	return id
}

// swapHead swaps the id k places behind the head into the head slot.
func (q *runQueue) swapHead(k int) {
	i := q.head + k
	if i >= len(q.ids) {
		i -= len(q.ids)
	}
	q.ids[q.head], q.ids[i] = q.ids[i], q.ids[q.head]
}

// shuffleSeed, when not zero, seeds a shuffled schedule for every
// one-worker run that starts while it is set: the worker pops a random
// runnable rank, and each wake joins a random end of the run queue.
// Results must not move; only tests set it (export_test.go).
var shuffleSeed atomic.Uint64

// eventEngine is the cooperative scheduler behind Cluster.Run and
// RunSteps. One engine drives one run.
type eventEngine struct {
	c       *Cluster
	res     *Result
	errs    []error
	workers int
	// wg counts the live workers; Run's caller waits on it (runWorkers).
	wg sync.WaitGroup

	// start builds rank id's program on its first dispatch.
	start func(id int) Stepper

	// cancellable records that the run has a cancel context, read once
	// here so a context-free rendezvous skips the cancelled-flag load.
	cancellable bool

	// mu guards everything down to shuffle; unlock states what a critical
	// section may not contain.
	mu      sync.Mutex
	ranks   []evRank
	runq    runQueue
	running int // ranks a worker is stepping
	live    int // ranks that have not exited
	rend    map[ffKey]*ffRendezvous
	// idle counts the workers waiting on idleWake for a runnable rank.
	idleWake sync.Cond
	idle     int
	// shuffle draws the shuffled schedule (shuffleSeed); nil on a FIFO run.
	shuffle *rand.Rand

	// membIDs interns communicator memberships into the ids that key rend
	// (membID), under its own lock: the wide key is never hashed under mu.
	membMu  sync.Mutex
	membIDs map[ffMemb]uint32
}

func newEventEngine(c *Cluster, start func(id int) Stepper, res *Result) *eventEngine {
	workers := c.cost.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &eventEngine{
		c:       c,
		res:     res,
		errs:    make([]error, c.p),
		workers: workers,
		ranks:   make([]evRank, c.p),
		runq:    runQueue{ids: make([]int32, c.p)},
		live:    c.p,
		rend:    make(map[ffKey]*ffRendezvous),
		membIDs: make(map[ffMemb]uint32),

		start:       start,
		cancellable: c.cost.Context != nil,
	}
	e.idleWake.L = &e.mu
	if seed := shuffleSeed.Load(); seed != 0 && workers == 1 {
		e.shuffle = rand.New(rand.NewPCG(seed, 0))
	}
	for i := range e.ranks {
		e.ranks[i].peer = -1
	}
	return e
}

// Run executes fn on every rank, each a coroutine the workers step
// (co.go). A Cluster must not be reused after Run: leftover messages from
// a failed run would corrupt a second one.
func (c *Cluster) Run(fn func(r *Rank) error) (*Result, error) {
	return c.run(func(int) Stepper { return &coRank{fn: fn} })
}

// run hosts start's programs on the workers until every rank has exited.
func (c *Cluster) run(start func(id int) Stepper) (*Result, error) {
	res := &Result{PerRank: make([]Stats, c.p)}
	e := newEventEngine(c, start, res)
	c.eng = e
	defer c.watchContext()()
	e.mu.Lock()
	// The first wave runs in descending id order. The ring and tree
	// collectives receive from higher-indexed peers (Shift(-1) pulls from
	// me+1, reduce trees pull from the high half), so running high ids
	// first means a rank's sources have usually stashed their sends by the
	// time it asks, turning most would-be parks into immediate dequeues.
	for id := c.p - 1; id >= 0; id-- {
		e.pushRunnable(id)
	}
	e.mu.Unlock()
	e.runWorkers()
	res.ActivePairs = c.ActivePairs()
	return res, joinRunErrors(c, e.errs)
}

// pushRunnable marks rank id runnable and queues it at the tail. mu held.
func (e *eventEngine) pushRunnable(id int) {
	e.ranks[id].runnable = true
	e.runq.push(int32(id))
}

// pick pops the next runnable rank and counts it running. mu held.
func (e *eventEngine) pick() (int32, *evRank) {
	if e.shuffle != nil {
		e.runq.swapHead(e.shuffle.IntN(e.runq.n))
	}
	id := e.runq.pop()
	rk := &e.ranks[id]
	rk.runnable = false
	rk.op = opRunning
	rk.peer = -1
	e.running++
	return id, rk
}

// unlock releases mu, then signals as many idle workers as there are
// queued ranks. Every critical section that may queue a rank ends here.
// The rule for every critical section of mu, here and in comm_ff.go: no
// channel operation, no go statement, no map access keyed wider than 16
// bytes and no Segment copy (bar the deadlock snapshot, which ends the
// run).
func (e *eventEngine) unlock() {
	n := min(e.idle, e.runq.n)
	e.idle -= n
	e.mu.Unlock()
	for ; n > 0; n-- {
		e.idleWake.Signal()
	}
}

// finish records how rank r left the run — rec is what unwound it, nil for
// a return — publishes the exit and stops counting it running. Returns
// with mu held.
func (e *eventEngine) finish(r *Rank, rec any) {
	c, id := e.c, r.id
	status, err := c.classifyRankExit(rec, id, e.errs[id])
	e.errs[id] = err
	e.res.PerRank[id] = r.Stats()
	// Publish the exit record before the exit word: a peer that loads
	// exited[id] true (or sees the engine's opExited under mu) may read
	// exits[id]; a peer's unmatched Recv then becomes a clean error
	// instead of a deadlock, after already-queued messages are
	// delivered.
	c.exits[id] = exitInfo{status: status, err: err}
	c.exited[id].Store(true)
	e.mu.Lock()
	rk := &e.ranks[id]
	rk.op = opExited
	rk.rank = nil // the exited Rank and its peer tables may be collected
	e.live--
	e.running--
}

// yieldIfBehind yields the calling closure rank to the back of the run
// queue when the rank at its head was queued at an earlier virtual clock.
// A compute-only loop never parks on its own, so on a small worker pool it
// would starve earlier ranks indefinitely — including ranks whose
// real-time side effects the program is waiting on (an external cancel, a
// test synchronization). Results are schedule-invariant, so the yield only
// affects wall-clock fairness, never the virtual outcome.
func (e *eventEngine) yieldIfBehind(r *Rank) {
	e.mu.Lock()
	q := &e.runq
	behind := q.n > 0 && e.ranks[q.ids[q.head]].clock < r.clock
	e.mu.Unlock()
	if behind {
		// The rank stays opRunning: it is runnable, not blocked, so the
		// quiescence scans and cancel sweep keep ignoring it — it will
		// observe cancellation itself at its next instrumented op.
		r.park()
	}
}

// stepped returns r's record, the one check that r is a Stepper's rank: a
// Try form called from a closure fails here by name.
func (r *Rank) stepped() *stepState {
	if r.step.co != nil {
		panic(fmt.Sprintf("sim: rank %d is not a Stepper: the Try forms run only under RunSteps", r.id))
	}
	return r.step
}

// wake marks a parked rank runnable with the given resume reason and puts
// it at the head of the run queue. A rank already runnable keeps its
// pending reason only when the new one is a plain evWake: the specific
// reasons (conducted result ready, timer fired, abort, cancel) always
// replace it, so a racing message enqueue can never mask them — the
// resumed operation re-checks its queues anyway. A rank that is not parked
// — running, or stepped by a worker that has not yet recorded its wait —
// is left alone: its worker's re-check under mu sees what the wake would
// have reported. mu held.
func (e *eventEngine) wake(id int, kind evKind) {
	rk := &e.ranks[id]
	if rk.runnable {
		if kind != evWake {
			rk.kind = kind
		}
		return
	}
	if !blockedOp(rk.op) && rk.op != opOwned {
		return
	}
	rk.kind = kind
	rk.runnable = true
	if e.shuffle != nil && e.shuffle.IntN(2) == 0 {
		e.runq.push(int32(id))
	} else {
		e.runq.pushFront(int32(id))
	}
}

// notifyEnqueue wakes dst if it is parked receiving from src.
func (e *eventEngine) notifyEnqueue(src, dst int) { e.notify(dst, uint64(src)<<2|watchRecv) }

// notifyDequeue wakes src if it is parked sending to dst (its pair's
// buffer was full; the caller just drained one slot).
func (e *eventEngine) notifyDequeue(src, dst int) { e.notify(src, uint64(dst)<<2|watchSend) }

// notify wakes rank id if its wait record encodes to watch (spelled out by
// the wrappers above: going through watchWord would cost them their
// inlining). The unlocked precheck rejects the common case — id running, or
// parked on some other pair — without the lock; the locked record decides.
func (e *eventEngine) notify(id int, watch uint64) {
	if e.ranks[id].watch.Load() != watch {
		return
	}
	e.mu.Lock()
	if rk := &e.ranks[id]; blockedOp(rk.op) && watchWord(rk.op, int(rk.peer)) == watch {
		e.wake(id, evWake)
	}
	e.unlock()
}

// cancelSweep wakes every parked rank with evCancel; the run context's
// cancellation calls it once (cancel.go). Running ranks — and members a
// conductor owns, which it has taken out of the blocked set — abort at their
// next instrumented op via cancelCheck instead.
func (e *eventEngine) cancelSweep() {
	e.mu.Lock()
	for id := range e.ranks {
		if blockedOp(e.ranks[id].op) {
			e.wake(id, evCancel)
		}
	}
	e.unlock()
}

// exitedLocked reports whether rank id has exited. mu held; the mutex
// ordering makes the exit record exits[id] safe to read afterwards.
func (e *eventEngine) exitedLocked(id int) bool { return e.ranks[id].op == opExited }

// quiesce resolves an exact quiescence: no rank running, none runnable,
// some still live. Releases that owe nothing to virtual time (peer-exit
// notifications, orphaned collectives, aborts of senders to exited peers)
// are applied before any timer fires, and the single earliest armed timer
// fires before deadlock is declared. mu held.
func (e *eventEngine) quiesce() {
	// (1) Ranks parked on a peer that exited: release them all, and let
	// each re-check (message first, then exit) on resume.
	woke := false
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable {
			continue
		}
		switch rk.op {
		case opBlockedRecv, opBlockedRecvTimer, opBlockedSendTimer:
			if e.ranks[rk.peer].op == opExited {
				e.wake(id, evWake)
				woke = true
			}
		}
	}
	if woke {
		return
	}
	// (2) Orphaned collectives. Only once no exit release is pending are
	// the exited ranks the same whatever the schedule.
	if e.orphanRendezvous() {
		return
	}
	// (3) A plain send to an exited peer whose buffer stayed full can
	// never complete, whatever the rest of the cluster does. Abort those
	// senders.
	var snap *ClusterSnapshot
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || rk.op != opBlockedSend {
			continue
		}
		peer := int(rk.peer)
		if e.ranks[peer].op != opExited {
			continue
		}
		if e.c.pairOf(id, peer).length() < e.c.bufCap {
			continue // space opened; the send completes by itself
		}
		if snap == nil {
			snap = e.snapshotLocked()
		}
		err := &DeadlockError{Rank: id, Op: "send", Peer: peer, PeerExited: true, Snapshot: snap}
		e.c.emitDeadlock(DeadlockEvent{Err: err})
		e.c.abortErr[id] = err
		e.wake(id, evAbort)
		woke = true
	}
	if woke {
		return
	}
	// (4) Fire the single earliest armed virtual timer (ties to the
	// lowest rank id) — one per quiescence round, the timer.go rule that
	// keeps timeout-driven runs deterministic. A +Inf deadline never fires.
	best, bestD := -1, 0.0
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || (rk.op != opBlockedRecvTimer && rk.op != opBlockedSendTimer) || math.IsInf(rk.deadline, 1) {
			continue
		}
		if best < 0 || rk.deadline < bestD {
			best, bestD = id, rk.deadline
		}
	}
	if best >= 0 {
		e.wake(best, evTimerFire)
		return
	}
	// (5) Deadlock: zero armed timers, nothing deliverable. Abort every
	// blocked rank with the shared wait graph and snapshot.
	graph := waitGraph(e.ranks)
	if snap == nil {
		snap = e.snapshotLocked()
	}
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || !blockedOp(rk.op) {
			continue
		}
		err := &DeadlockError{Rank: id, Op: opName(rk.op), Peer: int(rk.peer), Graph: graph, Snapshot: snap}
		e.c.emitDeadlock(DeadlockEvent{Err: err})
		e.c.abortErr[id] = err
		e.wake(id, evAbort)
	}
}

// orphanRendezvous fails every pending collective that a member exited
// without arriving at: each arrived member is woken to fail as a receive
// from the lowest such member would (ffRendezvous.result). Arrivals and
// conducts pay nothing for it. mu held.
func (e *eventEngine) orphanRendezvous() (woke bool) {
	for key, rv := range e.rend {
		for i, m := range rv.members {
			if rv.calls[i].rank == nil && e.ranks[m].op == opExited {
				delete(e.rend, key)
				rv.orphan, woke = int32(m)+1, true
				rv.done.Store(true)
				for _, call := range rv.calls {
					if call.rank != nil {
						e.wake(call.rank.id, evConducted)
					}
				}
				break
			}
		}
	}
	return woke
}

// snapshotLocked builds the cluster snapshot from the engine's exact wait
// records. mu held.
func (e *eventEngine) snapshotLocked() *ClusterSnapshot {
	snap := &ClusterSnapshot{Ranks: make([]RankSnapshot, e.c.p)}
	for id := range e.ranks {
		rk := &e.ranks[id]
		rs := RankSnapshot{Rank: id, Peer: -1}
		switch rk.op {
		case opBlockedRecv, opBlockedColl:
			rs.State, rs.Peer = "blocked-recv", int(rk.peer)
		case opBlockedSend:
			rs.State, rs.Peer = "blocked-send", int(rk.peer)
		case opBlockedRecvTimer:
			rs.State, rs.Peer = "blocked-recv-timer", int(rk.peer)
		case opBlockedSendTimer:
			rs.State, rs.Peer = "blocked-send-timer", int(rk.peer)
		case opExited:
			rs.State = "exited"
		default:
			rs.State = "running"
		}
		if blockedOp(rk.op) && rk.rank.hasSeg {
			seg := rk.rank.lastSeg
			rs.LastSeg = &seg
		}
		snap.Ranks[id] = rs
	}
	snap.Queued = e.c.queuedPairs()
	return snap
}

// recvTry is one receive attempt on the pair queue q from src: final is
// false when the receive must wait.
func (e *eventEngine) recvTry(r *Rank, q *evRing, src int) (msg message, ok, final bool) {
	if msg, ok = q.pop(); ok {
		if q.length() >= int(q.sem)-1 {
			e.notifyDequeue(src, r.id)
		}
		return msg, true, true
	}
	if e.c.exited[src].Load() {
		// Everything the peer ever sent was enqueued before its exit
		// word was set; drain once more before failing.
		msg, ok = q.pop()
		return msg, ok, true
	}
	return message{}, false, false
}

// recvTimeoutEvent is RecvTimeout's core: try a buffered message, else park
// with the armed deadline. Whatever woke the rank, it re-checks in fixed
// priority order — message, peer exit (recvTry), expiry — so a real-time
// race between a late enqueue, an exit and a timer fire cannot change the
// outcome: the decision depends only on virtual state. Neither got nor
// exited means the deadline expired.
func (e *eventEngine) recvTimeoutEvent(r *Rank, src int, deadline float64) (msg message, got, exited bool) {
	q := r.queueFrom(src)
	for fired := false; ; fired = r.park() == evTimerFire {
		if msg, ok, final := e.recvTry(r, q, src); final {
			return msg, ok, !ok
		}
		if fired {
			return
		}
		r.step.waitUntil(opBlockedRecvTimer, src, q, deadline)
	}
}

// sendDeadlineEvent is deliverDeadline's core: enqueue with a virtual
// deadline bounding the park. Resolution priority: enqueue if space opened,
// then peer exit, then expiry (neither sent nor exited).
func (e *eventEngine) sendDeadlineEvent(r *Rank, dst int, m message, deadline float64) (sent, exited bool) {
	q := r.queueTo(dst)
	for fired := false; ; fired = r.park() == evTimerFire {
		if q.push(m) {
			e.notifyEnqueue(r.id, dst)
			return true, false
		}
		if e.c.exited[dst].Load() {
			return false, true
		}
		if fired {
			return false, false
		}
		r.step.waitUntil(opBlockedSendTimer, dst, q, deadline)
	}
}
