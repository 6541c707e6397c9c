package sim

import (
	"fmt"
	"runtime"
)

// The rank host (DESIGN §12). Worker goroutines pop ranks off the run
// queue and step them (stepWorker), whatever the program and whatever the
// fault plan. A Stepper keeps its state in its own fields and has no
// goroutine, stack or resume channel: Step runs the rank until a Try call —
// TrySend, TryRecv, TryShiftOwned, TryBcastLargeInto, TryReduceLarge —
// cannot complete; the call records the wait on the Rank and returns
// false, Step returns at once without touching the Rank again, and the
// worker parks the rank (parkStep). Being popped again is the resume; the
// next Step repeats the call with the same arguments, and it completes
// from what the failed attempt kept (stepState) without pricing anything
// or rolling a fate twice. A completed Try call is its blocking twin,
// through the same code. The Try calls run only on a Stepper's rank. A
// closure rank is a Stepper too (coRank, co.go): its Step resumes the
// closure's coroutine, whose blocking operations repeat the Try calls and
// yield between attempts, so its waits go through the same parkStep.

// Stepper is a rank program the engine can host without a goroutine. Step
// advances rank r as far as it can and reports whether the program
// finished (done) or failed (err, which ends the rank like a closure's
// returned error). A Step that reports neither either failed a Try call,
// and is stepped again when the call can complete, or recorded no wait
// and yields: it is stepped again after the ranks already queued. A panic
// inside Step is reported like a closure's.
type Stepper interface {
	Step(r *Rank) (done bool, err error)
}

// RunSteps is Run for Steppers: start(id) builds rank id's program when the
// rank first runs.
func RunSteps(p int, cost Cost, start func(id int) Stepper) (*Result, error) {
	c, err := NewCluster(p, cost)
	if err != nil {
		return nil, err
	}
	return c.RunSteps(start)
}

// RunSteps hosts start's Steppers on every rank, stackless. A Cluster must
// not be reused after it.
func (c *Cluster) RunSteps(start func(id int) Stepper) (*Result, error) { return c.run(start) }

// stepState is a rank's wait record and what its last Try call left.
type stepState struct {
	prog Stepper
	// co is prog when the rank is a closure's coroutine (co.go), else nil.
	co *coRank
	// op and peer are the wait the last Step recorded (opRunning: none),
	// on the pair queue q or, for a collective, on the rendezvous rv;
	// deadline is a timed operation's armed virtual deadline.
	op       uint64
	peer     int
	q        *evRing
	rv       *ffRendezvous
	deadline float64
	// pend is the copy of a priced send that a full pair queue refused,
	// left how many copies, pend among them, are still to push, and next
	// the fate of the copy after pend; shifted marks a TryShiftOwned whose
	// send half is done.
	pend    message
	left    uint8
	next    copyFate
	shifted bool
}

func (st *stepState) wait(op uint64, peer int, q *evRing) { st.op, st.peer, st.q = op, peer, q }

// waitUntil is wait for a timed operation armed to fire at deadline.
func (st *stepState) waitUntil(op uint64, peer int, q *evRing, deadline float64) {
	st.wait(op, peer, q)
	st.deadline = deadline
}

// runWorkers steps the run's ranks on min(Workers, p) workers until every
// rank has exited. The caller only waits: a rank that calls runtime.Goexit
// unwinds the worker stepping it (goexit), never Run's caller.
func (e *eventEngine) runWorkers() {
	n := min(e.workers, e.c.p)
	e.wg.Add(n)
	for range n {
		go e.worker()
	}
	e.wg.Wait()
}

func (e *eventEngine) worker() {
	defer e.wg.Done()
	e.stepWorker()
}

// stepWorker is one worker: it pops runnable ranks and steps them,
// resolves quiescence when it finds nothing running and nothing queued,
// and otherwise waits on idleWake until unlock signals queued work or the
// last rank exits. Parks and resumes never enter the Go scheduler, so on a
// run with a cancel context every 64th pick yields the processor: the
// context's cancel callback then runs at once instead of at the next
// forced preemption (10 ms).
func (e *eventEngine) stepWorker() {
	picks := 0
	e.mu.Lock()
	for {
		if e.runq.n > 0 {
			id, rk := e.pick()
			kind, r := rk.kind, rk.rank
			e.unlock()
			if picks++; e.cancellable && picks&63 == 0 {
				runtime.Gosched()
			}
			e.stepRank(int(id), r, kind)
			continue
		}
		if e.live == 0 {
			e.idleWake.Broadcast()
			break
		}
		if e.running == 0 {
			e.quiesce()
			if e.runq.n > 0 {
				continue
			}
		}
		e.idle++
		e.idleWake.Wait()
	}
	e.mu.Unlock()
}

// stepRank runs rank id, resumed with kind, until it parks or exits,
// stepping it again whenever its recorded wait already holds. r is nil on
// the rank's first dispatch. Enters with mu released, returns with it held.
func (e *eventEngine) stepRank(id int, r *Rank, kind evKind) {
	rk := &e.ranks[id]
	if r == nil {
		r = &Rank{cluster: e.c, id: id, step: new(stepState)}
		rk.rank = r
	}
	rk.watch.Store(0)
	for {
		if exit, rec := e.stepOnce(r, kind); exit {
			e.finish(r, rec)
			return
		}
		if e.parkStep(r) {
			return
		}
		kind = evWake
	}
}

// stepOnce calls r's Step once; exit reports that the rank is done, and
// rec what unwound it. A closure learns why it was resumed inside its
// coroutine and unwinds there; a Stepper resumed to cancel or abort it
// unwinds here.
func (e *eventEngine) stepOnce(r *Rank, kind evKind) (exit bool, rec any) {
	returned := false
	defer func() {
		if rec = recover(); rec != nil {
			exit = true
		} else if !returned {
			e.goexit(r)
		}
	}()
	st := r.step
	if st.prog == nil {
		st.prog = e.start(r.id)
		st.co, _ = st.prog.(*coRank)
	}
	if st.co != nil {
		st.co.kind = kind
	} else {
		switch kind {
		case evCancel:
			panic(cancelPanic{})
		case evAbort:
			r.abort()
		}
	}
	st.op = opRunning
	done, err := st.prog.Step(r)
	returned = true
	e.errs[r.id] = err
	return done || err != nil, nil
}

// goexit ends rank r, whose program called runtime.Goexit (t.FailNow
// inside a rank), with an error naming it, and starts a worker to replace
// the one the Goexit goes on to unwind: the run completes without it.
func (e *eventEngine) goexit(r *Rank) {
	e.errs[r.id] = fmt.Errorf("sim: rank %d called runtime.Goexit (t.FailNow inside a rank?)", r.id)
	e.finish(r, nil)
	e.wg.Add(1)
	e.unlock()
	go e.worker()
}

// parkStep parks rank r on the wait its last Step recorded and reports
// true with mu held; or, when the wait already holds — a message landed,
// space opened, the peer exited, the collective completed, perhaps while
// Step was still returning — reports false with mu released, and the rank
// steps again. The rank stays opRunning until here, so a wake that landed
// mid-Step left it alone, and no second worker can pop it while its
// coroutine is still on a stack; the watch word is published before the
// re-check under mu, so a sender's enqueue is seen by one side or the
// other. A Step that recorded no wait yields: the rank rejoins the back of
// the queue.
func (e *eventEngine) parkStep(r *Rank) bool {
	rk, st := &e.ranks[r.id], r.step
	op, peer := st.op, st.peer
	if op != opRunning && st.rv == nil {
		rk.watch.Store(watchWord(op, peer))
	}
	e.mu.Lock()
	switch {
	case op == opRunning:
		rk.kind = evWake
		rk.clock = r.clock
		e.pushRunnable(r.id)
		e.running--
		return true
	case st.rv != nil:
		// rk.clock was recorded under the arrival's lock hold (ffTry).
		if st.rv.done.Load() {
			e.mu.Unlock()
			return false
		}
		if st.rv.conducting {
			op = opOwned
		}
	case (op == opBlockedRecv || op == opBlockedRecvTimer) && (st.q.length() > 0 || e.exitedLocked(peer)),
		op == opBlockedSend && st.q.length() < int(st.q.sem),
		op == opBlockedSendTimer && (st.q.length() < int(st.q.sem) || e.exitedLocked(peer)):
		rk.watch.Store(0)
		e.mu.Unlock()
		return false
	default:
		rk.clock = r.clock
	}
	rk.op, rk.peer, rk.deadline = op, int32(peer), 0
	if op == opBlockedRecvTimer || op == opBlockedSendTimer {
		rk.deadline = st.deadline
	}
	e.running--
	return true
}

// TrySend is Send for a Stepper. It fails when the pair's buffer is full:
// the send is priced and its fates rolled once, the copies not yet pushed
// are kept, and the repeated call pushes them.
func (r *Rank) TrySend(dst int, data []float64) bool {
	r.stepped()
	return r.trySend(dst, data, false)
}

// trySend is TrySend on any rank; owned callers surrender data, as for
// send. A refused copy is kept whole, and a second copy is built on the
// repeat from the kept fate: the rank sends nothing in between, so
// sendCount still keys it.
func (r *Rank) trySend(dst int, data []float64, owned bool) bool {
	st := r.step
	m, left := st.pend, int(st.left)
	if left == 0 {
		var fates [2]copyFate
		if m, fates, left = r.post(dst, len(data)); left == 0 {
			return true // every copy dropped; the sender has paid
		}
		m.data, st.next = r.payload(dst, data, fates[0], owned && left == 1), fates[1]
	}
	q := r.queueTo(dst)
	for ; q.push(m); m.data = r.payload(dst, data, st.next, owned) {
		r.cluster.eng.notifyEnqueue(r.id, dst)
		if left--; left == 0 {
			st.pend, st.left = message{}, 0
			return true
		}
	}
	st.pend, st.left = m, uint8(left)
	st.wait(opBlockedSend, dst, q)
	return false
}

// TryRecv is Recv for a Stepper. It fails when nothing from src has arrived
// yet.
func (r *Rank) TryRecv(src int) ([]float64, bool) {
	r.stepped()
	return r.tryRecv(src)
}

// tryRecv is TryRecv on any rank.
func (r *Rank) tryRecv(src int) ([]float64, bool) {
	r.checkPeer(src, "receiving from")
	r.crashCheck()
	if msg, ok := r.takePushback(src); ok {
		return r.finishRecv(src, msg), true
	}
	q := r.queueFrom(src)
	msg, ok, final := r.cluster.eng.recvTry(r, q, src)
	if !final {
		r.step.wait(opBlockedRecv, src, q)
		return nil, false
	}
	return r.finishRecvOrFail(src, msg, ok), true
}

// TryShiftOwned is ShiftOwned for a Stepper. It fails while the send half
// waits for buffer space or the receive half for its message; the repeat
// resumes the half that waited.
func (c *Comm) TryShiftOwned(data []float64, by int) ([]float64, bool) {
	r, st, p := c.rank, c.rank.stepped(), len(c.members)
	if by = ((by % p) + p) % p; by == 0 {
		return data, true
	}
	if !st.shifted {
		if !r.trySend(c.members[(c.me+by)%p], data, true) {
			return nil, false
		}
		st.shifted = true
	}
	v, ok := r.tryRecv(c.members[(c.me-by+p)%p])
	st.shifted = !ok
	return v, ok
}

// TryBcastLargeInto is BcastLargeInto for a Stepper. It fails until every
// member has arrived; the repeat returns the result.
func (c *Comm) TryBcastLargeInto(dst []float64, root int, data []float64) ([]float64, bool) {
	c.rank.stepped()
	return c.rank.cluster.eng.ffTry(c, ffBcastLarge, ffCall{data: data, dst: dst, arg: root})
}

// TryReduceLarge is ReduceLarge for a Stepper, with the same small-payload
// fallback to the binomial Reduce. It fails until every member has
// arrived; the repeat returns the result.
func (c *Comm) TryReduceLarge(root int, data []float64, op ReduceOp) ([]float64, bool) {
	c.rank.stepped()
	return c.rank.cluster.eng.ffTry(c, c.reduceLargeOp(len(data)), ffCall{data: data, arg: root, rop: op})
}

// ffTry is one attempt at collective op on any rank. A lone member's
// collective sends nothing and completes at once. An arrival that does not
// fill the rendezvous records the wait and fails — the clock under the
// arrival's lock hold, because the conductor may price the Rank as soon as
// the lock drops. The repeat, stepped once the rendezvous is done, takes
// the result.
func (e *eventEngine) ffTry(c *Comm, op uint8, call ffCall) ([]float64, bool) {
	if len(c.members) == 1 {
		call.rank = c.rank
		rv := getRend(1)
		rv.members, rv.calls[0] = c.members, call
		conduct(rv, op)
		return rv.take(0), true
	}
	st := c.rank.step
	if rv := st.rv; rv != nil {
		st.rv = nil
		return rv.result(c), true
	}
	rv, last := e.arrive(c, op, call)
	if last {
		return e.conductLast(rv, op, c.me), true
	}
	e.ranks[c.rank.id].clock = c.rank.clock
	st.op, st.peer, st.rv = opBlockedColl, c.members[0], rv
	e.mu.Unlock()
	return nil, false
}
