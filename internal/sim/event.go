package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The event engine: the simulator's execution backend.
//
// Ranks execute on goroutines — an SPMD function is an opaque closure whose
// stack must live somewhere — but the Go scheduler does not multiplex them:
// a goroutine only runs while the engine has explicitly handed it one of a
// bounded number of worker slots (Cost.Workers). When a rank would block
// (empty receive queue, full send buffer, a collective rendezvous), it
// parks: it registers what it waits for, hands its slot to the next runnable
// rank, and sleeps on a one-token resume channel until the engine wakes it
// with a reason. Runnable ranks wait in one min-heap ordered by virtual
// clock (ties by rank id) — the virtual-time event queue — so execution
// tends to proceed in causal waves and a wake is delivered exactly when the
// awaited condition holds, never as a poll.
//
// Three properties follow:
//
//   - blocking costs one short critical section + one channel token. Under
//     mu the parking rank only records its wait and picks its successor; the
//     token (or the successor's carrier spawn) follows the unlock
//     (unlockResume), so a second worker contends for a few stores, never a
//     channel send;
//   - quiescence is exact: the engine knows the instant the run queue is
//     empty and every live rank is parked, so deadlock detection and
//     virtual-timer firing (timer.go) are immediate and deterministic, never
//     a real-time window;
//   - collectives can be fast-forwarded: when no fault plan or observer
//     must see a run operation by operation (eventEngine.ffOK), a
//     collective's whole message schedule is conducted centrally by its
//     last-arriving member in one pass (comm_ff.go), eliminating the
//     per-round park/resume cycles entirely. A cancel context does not
//     disqualify a run: conducts are cancel-safe (comm_ff.go, "Cancellation").
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
// guarded by eventEngine.mu except resume, which carries at most one
// token from unlockResume to the parked carrier, and watch. Padded to one
// cache line, so a sender polling one rank's watch word never shares a
// line with a neighbour's locked fields.
type evRank struct {
	resume chan evKind
	// op/peer/deadline form the wait record while parked (op values from
	// deadlock.go; opRunning while executing or runnable, opExited after
	// the carrier returns). deadline is the armed virtual deadline of a
	// timed operation, 0 otherwise.
	op       uint64
	peer     int32
	runnable bool
	started  bool
	kind     evKind
	deadline float64
	// clock is the rank's virtual clock at its last park, the heap key.
	clock float64
	// rank is the parked rank, whose last timeline segment a deadlock
	// snapshot reports. Snapshots are taken at quiescence, when no carrier or conductor holds
	// a worker slot, so every parked Rank is still.
	rank *Rank
	// watch is the lock-free mirror of the (op, peer) wait record for the
	// notifyEnqueue/notifyDequeue prechecks: peer<<2 | watchRecv/watchSend
	// while this rank is parked on a pair operation, 0 otherwise. park
	// publishes it (sequentially consistent) BEFORE its final queue
	// re-check; a sender reads it AFTER its enqueue. One of the two
	// therefore always observes the other — the classic store/load
	// protocol — so a miss on both sides is impossible and senders skip
	// the engine lock entirely on the overwhelmingly common case of an
	// unwatched pair.
	watch atomic.Uint64
	_     [8]byte
}

// evPick is one rank dispatch handed a worker slot: unlockResume starts its
// carrier (start) or sends kind on its resume channel once mu is released.
type evPick struct {
	id    int32
	kind  evKind
	start bool
}

// watch classes (low two bits of evRank.watch).
const (
	watchRecv uint64 = 1
	watchSend uint64 = 2
)

// watchWord encodes a park's wait record for the lock-free precheck.
func watchWord(op uint64, peer int) uint64 {
	class := watchRecv
	if op == opBlockedSend || op == opBlockedSendTimer {
		class = watchSend
	}
	return uint64(peer)<<2 | class
}

// evEntry is one runnable rank in the run queue, ordered by (clock, id).
type evEntry struct {
	clock float64
	id    int32
}

// evHeap is a binary min-heap of runnable ranks.
type evHeap []evEntry

func (h *evHeap) push(e evEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *evHeap) pop() evEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && evLess(old[l], old[small]) {
			small = l
		}
		if r < n && evLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

func evLess(a, b evEntry) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	// Ties break toward the HIGHER rank id. Results are schedule-invariant
	// (the conformance golden family pins this), so the tiebreak is purely
	// a throughput decision: the ring and tree collectives receive from
	// higher-indexed peers (Shift(-1) pulls from me+1, reduce trees pull
	// from the high half), so running high ids first means a rank's sources
	// have usually stashed their sends by the time it asks — turning most
	// would-be parks into immediate dequeues.
	return a.id > b.id
}

// eventEngine is the cooperative scheduler behind Cluster.Run. One engine
// drives one run.
type eventEngine struct {
	c       *Cluster
	fn      func(*Rank) error
	res     *Result
	errs    []error
	workers int

	// ffOK marks the run eligible for fast-forwarded collectives: no fault
	// plan and no observers (including the tracer). Either must see the run
	// event by event — faults key decisions on individual sends, observers
	// are owed per-operation callbacks on the owning rank's goroutine — so
	// they force the slow path. The predicate is cluster-static:
	// eligibility never changes mid-run, which keeps conducted and
	// event-by-event collectives from deadlocking each other.
	ffOK bool
	// cancellable records that the run has a cancel context, read once
	// here so a context-free conduct pays for none of the cancel protocol.
	cancellable bool

	// mu guards everything down to picks; dispatch states what a critical
	// section may not contain.
	mu      sync.Mutex
	ranks   []evRank
	runq    evHeap
	running int // ranks holding a worker slot: executing, or picked and about to be resumed
	live    int // ranks that have not exited
	rend    map[ffKey]*ffRendezvous
	picks   []evPick // dispatch's output, drained by unlockResume
	done    chan struct{}

	// membIDs interns communicator memberships into the ids that key rend
	// (membID), under its own lock: the wide key is never hashed under mu.
	membMu  sync.Mutex
	membIDs map[ffMemb]uint32
}

func newEventEngine(c *Cluster, fn func(*Rank) error, res *Result) *eventEngine {
	workers := c.cost.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &eventEngine{
		c:       c,
		fn:      fn,
		res:     res,
		errs:    make([]error, c.p),
		workers: workers,
		ffOK:    c.cost.Faults == nil && len(c.obs) == 0,
		ranks:   make([]evRank, c.p),
		runq:    make(evHeap, 0, c.p),
		live:    c.p,
		rend:    make(map[ffKey]*ffRendezvous),
		picks:   make([]evPick, 0, workers),
		done:    make(chan struct{}),
		membIDs: make(map[ffMemb]uint32),

		cancellable: c.cost.Context != nil,
	}
	for i := range e.ranks {
		e.ranks[i].resume = make(chan evKind, 1)
		e.ranks[i].peer = -1
	}
	return e
}

// Run executes fn on every rank. A Cluster must not be reused after Run:
// leftover messages from a failed run would corrupt a second one.
func (c *Cluster) Run(fn func(r *Rank) error) (*Result, error) {
	res := &Result{PerRank: make([]Stats, c.p)}
	if c.tracer != nil {
		res.Trace = &Trace{Segments: c.tracer.segments, Phases: c.tracer.phases}
	}
	e := newEventEngine(c, fn, res)
	c.eng = e
	defer c.watchContext()()
	e.mu.Lock()
	// Descending ids arrive in heap order (evLess), so no push sifts.
	for id := c.p - 1; id >= 0; id-- {
		e.pushRunnable(id, 0)
	}
	e.dispatch()
	e.unlockResume()
	<-e.done
	res.ActivePairs = c.ActivePairs()
	return res, joinRunErrors(c, e.errs)
}

// pushRunnable marks rank id runnable at the given virtual clock. mu held.
func (e *eventEngine) pushRunnable(id int, clock float64) {
	rk := &e.ranks[id]
	rk.runnable = true
	e.runq.push(evEntry{clock: clock, id: int32(id)})
}

// dispatch fills free worker slots from the run queue, and — when the
// whole cluster has gone quiescent with ranks still live — resolves the
// quiescence (peer-exit releases first, then the earliest armed timer, then
// deadlock; see quiesce). mu held.
//
// dispatch only picks: a picked rank becomes opRunning, is counted in
// running and joins picks; the caller's unlockResume resumes it after
// releasing mu. The rule for every critical section of mu, here and in
// comm_ff.go: no channel operation, no go statement, no map access keyed
// wider than 16 bytes and no Segment copy (bar the deadlock snapshot, which
// ends the run). A picked rank has left the blocked set, so the cancel
// sweep and quiescence ignore it exactly as they ignore a running rank.
func (e *eventEngine) dispatch() {
	for {
		for e.running < e.workers && len(e.runq) > 0 {
			id := e.runq.pop().id
			rk := &e.ranks[id]
			rk.runnable = false
			rk.op = opRunning
			rk.peer = -1
			e.running++
			e.picks = append(e.picks, evPick{id: id, kind: rk.kind, start: !rk.started})
			rk.started = true
		}
		if e.running > 0 || e.live == 0 || len(e.runq) > 0 {
			return
		}
		// Quiescent: every live rank is parked and nothing is runnable.
		e.quiesce()
		if len(e.runq) == 0 {
			// quiesce wakes at least one rank whenever live ranks remain;
			// defensive: avoid spinning if it could not.
			return
		}
	}
}

// unlockResume releases mu, then resumes the ranks the preceding dispatch
// picked (at most one per worker slot, so the copy stays on the stack).
// Every critical section that dispatches ends here: picks is empty whenever
// mu is free.
func (e *eventEngine) unlockResume() {
	var buf [16]evPick
	picks := append(buf[:0], e.picks...)
	e.picks = e.picks[:0]
	e.mu.Unlock()
	for _, pk := range picks {
		if pk.start {
			go e.carrier(int(pk.id))
		} else {
			e.ranks[pk.id].resume <- pk.kind
		}
	}
}

// carrier is the goroutine that hosts rank id. It classifies how the rank
// left, publishes the exit and returns its worker slot.
func (e *eventEngine) carrier(id int) {
	c := e.c
	r := &Rank{cluster: c, id: id}
	defer func() {
		status, err := c.classifyRankExit(recover(), id, e.errs[id])
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
		rk.rank = nil // the exited Rank and its peer maps may be collected
		e.live--
		e.running--
		last := e.live == 0
		e.dispatch()
		e.unlockResume()
		if last {
			close(e.done)
		}
	}()
	e.errs[id] = e.fn(r)
}

// yieldIfBehind reparks the calling rank onto the run queue when another
// runnable rank sits at an earlier virtual clock. A compute-only loop
// never parks on its own, so on a small worker pool it would starve
// earlier ranks indefinitely — including ranks whose real-time side
// effects the program is waiting on (an external cancel, a test
// synchronization). Results are schedule-invariant, so the repark only
// affects wall-clock fairness, never the virtual outcome.
func (e *eventEngine) yieldIfBehind(r *Rank) {
	e.mu.Lock()
	if len(e.runq) == 0 || e.runq[0].clock >= r.clock {
		e.mu.Unlock()
		return
	}
	rk := &e.ranks[r.id]
	// The rank stays opRunning: it is runnable, not blocked, so the
	// quiescence scans and cancel sweep must keep ignoring it — it will
	// observe cancellation itself at its next instrumented op.
	rk.kind = evWake
	e.pushRunnable(r.id, r.clock)
	e.running--
	e.dispatch()
	e.unlockResume()
	<-rk.resume
}

// park blocks the calling rank with the given wait record until the
// engine resumes it. avail, checked under mu, lets the caller detect a
// condition that raced with its unlocked pre-check (a message enqueued,
// space opened, the peer exited) — if it reports true the rank never
// parks and evWake is returned immediately.
func (e *eventEngine) park(r *Rank, op uint64, peer int, deadline float64, avail func() bool) evKind {
	rk := &e.ranks[r.id]
	rk.watch.Store(watchWord(op, peer))
	e.mu.Lock()
	if avail != nil && avail() {
		rk.watch.Store(0)
		e.mu.Unlock()
		return evWake
	}
	return e.parkLocked(r, op, peer, deadline)
}

// parkLocked is park's core: record the wait, release the worker slot,
// hand it to the next runnable rank, and sleep. Enters with mu held,
// returns with mu released — or unwinds the rank when the engine resumed it
// to cancel or abort it.
func (e *eventEngine) parkLocked(r *Rank, op uint64, peer int, deadline float64) evKind {
	rk := &e.ranks[r.id]
	rk.op = op
	rk.peer = int32(peer)
	rk.deadline = deadline
	rk.clock = r.clock
	rk.rank = r
	e.running--
	e.dispatch()
	e.unlockResume()
	kind := <-rk.resume
	rk.watch.Store(0)
	switch kind {
	case evCancel:
		panic(cancelPanic{})
	case evAbort:
		r.abort()
	}
	return kind
}

// wake marks a parked rank runnable with the given resume reason. A rank
// already runnable keeps its pending reason only when the new one is a
// plain evWake: the specific reasons (conducted result ready, timer
// fired, abort, cancel) always replace it, so a racing message enqueue
// can never mask them — the resumed operation re-checks its queues
// anyway. mu held.
func (e *eventEngine) wake(id int, kind evKind) {
	rk := &e.ranks[id]
	if rk.runnable {
		if kind != evWake {
			rk.kind = kind
		}
		return
	}
	if !blockedOp(rk.op) {
		return
	}
	rk.kind = kind
	e.pushRunnable(id, rk.clock)
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
		e.dispatch()
	}
	e.unlockResume()
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
	e.dispatch()
	e.unlockResume()
}

// exitedLocked reports whether rank id has exited. mu held; the mutex
// ordering makes the exit record exits[id] safe to read afterwards.
func (e *eventEngine) exitedLocked(id int) bool { return e.ranks[id].op == opExited }

// quiesce resolves an exact quiescence: no rank running, none runnable,
// some still live. Releases that owe nothing to virtual time (peer-exit
// notifications, aborts of senders to exited peers) are applied before any
// timer fires, and the single earliest armed timer fires before deadlock is
// declared. mu held.
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
	// (2) A plain send to an exited peer whose buffer stayed full can
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
	// (3) Fire the single earliest armed virtual timer (ties to the
	// lowest rank id) — one per quiescence round, the timer.go rule that
	// keeps timeout-driven runs deterministic.
	best, bestD := -1, 0.0
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || (rk.op != opBlockedRecvTimer && rk.op != opBlockedSendTimer) {
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
	// (4) Deadlock: zero armed timers, nothing deliverable. Abort every
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

// snapshotLocked builds the cluster snapshot from the engine's exact wait
// records. mu held.
func (e *eventEngine) snapshotLocked() *ClusterSnapshot {
	snap := &ClusterSnapshot{Ranks: make([]RankSnapshot, e.c.p)}
	for id := range e.ranks {
		rk := &e.ranks[id]
		rs := RankSnapshot{Rank: id, Peer: -1}
		switch rk.op {
		case opBlockedRecv:
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

// recvEvent is Recv's core: dequeue the next message from src, parking
// until one arrives. ok=false reports that src exited with nothing further
// queued (the caller names the root cause).
func (e *eventEngine) recvEvent(r *Rank, src int) (message, bool) {
	q := r.queueFrom(src)
	exited := &e.c.exited[src]
	for {
		if msg, ok := q.pop(); ok {
			if q.length() >= int(q.sem)-1 {
				e.notifyDequeue(src, r.id)
			}
			return msg, true
		}
		if exited.Load() {
			// Everything the peer ever sent was enqueued before its exit
			// word was set; drain once more before failing.
			return q.pop()
		}
		e.park(r, opBlockedRecv, src, 0, func() bool {
			return q.length() > 0 || e.exitedLocked(src)
		})
	}
}

// recvTimeoutEvent is RecvTimeout's core: try a buffered message, else park
// with the armed deadline. Whatever woke the rank, it re-checks in fixed
// priority order — message, peer exit, expiry — so a real-time race between
// a late enqueue, an exit and a timer fire cannot change the outcome: the
// decision depends only on virtual state. Neither got nor exited means the
// deadline expired.
func (e *eventEngine) recvTimeoutEvent(r *Rank, src int, deadline float64) (msg message, got, exited bool) {
	q := r.queueFrom(src)
	if msg, got = q.pop(); got {
		if q.length() >= int(q.sem)-1 {
			e.notifyDequeue(src, r.id)
		}
		return
	}
	fired := false
	for {
		kind := e.park(r, opBlockedRecvTimer, src, deadline, func() bool {
			return q.length() > 0 || e.exitedLocked(src)
		})
		if kind == evTimerFire {
			fired = true
		}
		if msg, got = q.pop(); got {
			if q.length() >= int(q.sem)-1 {
				e.notifyDequeue(src, r.id)
			}
			return
		}
		if e.c.exited[src].Load() {
			exited = true
			return
		}
		if fired {
			return
		}
	}
}

// sendDeadlineEvent is deliverDeadline's core: enqueue with a virtual
// deadline bounding the park. Resolution priority: enqueue if space opened,
// then peer exit, then expiry (neither sent nor exited).
func (e *eventEngine) sendDeadlineEvent(r *Rank, dst int, m message, deadline float64) (sent, exited bool) {
	q := r.queueTo(dst)
	peerExited := &e.c.exited[dst]
	fired := false
	for {
		if q.push(m) {
			sent = true
			e.notifyEnqueue(r.id, dst)
			return
		}
		if peerExited.Load() {
			exited = true
			return
		}
		if fired {
			return
		}
		kind := e.park(r, opBlockedSendTimer, dst, deadline, func() bool {
			return q.length() < int(q.sem) || e.exitedLocked(dst)
		})
		if kind == evTimerFire {
			fired = true
		}
	}
}
