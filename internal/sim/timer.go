package sim

import "fmt"

// Virtual-time timers.
//
// A plain Recv blocks until a message arrives; when the message was lost
// (a silent drop, a dead peer) it blocks forever and only the deadlock
// abort at quiescence ends the run. RecvTimeout and SendTimeout instead give
// the blocked operation a deadline in VIRTUAL time — clock + timeout — so
// a resilience protocol can retransmit and keep the run alive.
//
// Making a timeout deterministic is the whole difficulty: the simulator
// has no global virtual clock to compare the deadline against, only the
// per-rank clocks that advance when messages flow. The rules:
//
//   - A message beats the timer iff its arrival stamp is strictly below
//     the deadline. A message that arrives (in real time) but is stamped
//     at or after the deadline is pushed back — it stays the FIFO head
//     for the pair and is returned by the next receive — and the
//     operation times out. The decision is a pure function of virtual
//     stamps, never of real-time interleaving.
//   - A timer with no message to beat it may only fire when the cluster
//     is quiescent: every live rank parked, nothing runnable. Quiescence
//     is exactly the condition under which deadlock would otherwise be
//     declared — it is the only point where "no message with a smaller
//     stamp can still arrive" is knowable. The engine then fires the
//     single earliest armed timer (ties broken by rank id) and waits for
//     fresh quiescence before firing the next; firing one at a time keeps
//     the run a deterministic function of the program and the fault seed,
//     because the fired rank's resumption can change which stamps every
//     other blocked rank will observe.
//   - On expiry the rank's clock advances to the deadline and the idle
//     span is accounted as WaitTime (a SegWait segment), so timeout-driven
//     recovery is priced through the normal Eq. 1/Eq. 2 terms like any
//     other wait.
//
// Deadlock is still declared — but only at quiescence with zero armed
// timers, so a retransmit/backoff cycle in flight counts as liveness.

// RecvOutcome says how a RecvTimeout resolved.
type RecvOutcome int

// RecvTimeout outcomes.
const (
	// RecvOK: a message with arrival stamp below the deadline was
	// delivered and priced exactly like a plain Recv.
	RecvOK RecvOutcome = iota
	// RecvTimedOut: no message beat the deadline; the clock advanced to
	// the deadline and the span was accounted as WaitTime. If a message
	// stamped at or after the deadline had already arrived it was pushed
	// back and stays the FIFO head for the pair.
	RecvTimedOut
	// RecvPeerExited: the peer left the run (clean exit, crash, failure)
	// with nothing further queued; PeerExit names the root cause. The
	// clock does not advance.
	RecvPeerExited
)

// String names the outcome.
func (o RecvOutcome) String() string {
	switch o {
	case RecvOK:
		return "ok"
	case RecvTimedOut:
		return "timeout"
	case RecvPeerExited:
		return "peer-exited"
	}
	return fmt.Sprintf("RecvOutcome(%d)", int(o))
}

// SendOutcome says how a SendTimeout resolved.
type SendOutcome int

// SendTimeout outcomes.
const (
	// SendOK: every copy was enqueued; identical to a plain Send.
	SendOK SendOutcome = iota
	// SendTimedOut: the pair's buffer stayed full past the deadline; the
	// undelivered copy is lost (the sender has paid, like a drop at the
	// NIC) and the clock advanced to the deadline as WaitTime.
	SendTimedOut
	// SendPeerExited: the receiver exited while the buffer was full, so
	// the send can never complete; the undelivered copy is lost and the
	// clock does not advance.
	SendPeerExited
)

// String names the outcome.
func (o SendOutcome) String() string {
	switch o {
	case SendOK:
		return "ok"
	case SendTimedOut:
		return "timeout"
	case SendPeerExited:
		return "peer-exited"
	}
	return fmt.Sprintf("SendOutcome(%d)", int(o))
}

// TimerKind classifies a TimerEvent.
type TimerKind int

// Timer event kinds.
const (
	// TimerArmed marks the start of a timed operation at the rank's
	// current clock.
	TimerArmed TimerKind = iota
	// TimerFired marks an expiry: the operation timed out at Deadline.
	TimerFired
	// TimerCancelled marks a timer resolved by its operation completing
	// (message delivered, buffer drained, peer exit observed).
	TimerCancelled
)

// String names the timer event kind.
func (k TimerKind) String() string {
	switch k {
	case TimerArmed:
		return "armed"
	case TimerFired:
		return "fired"
	case TimerCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("TimerKind(%d)", int(k))
}

// TimerEvent reports one virtual-timer transition on the Observer bus.
// Every timed operation emits one TimerArmed and resolves it with exactly
// one TimerFired or TimerCancelled; all three fire on the rank's own
// goroutine in virtual-time order, like segment callbacks.
type TimerEvent struct {
	Kind TimerKind
	// Rank owns the timer; Peer is the rank the timed operation targets.
	Rank, Peer int
	// Op is "recv" or "send".
	Op string
	// Deadline is the absolute virtual deadline; Time is the rank's clock
	// when the event fired (equal to Deadline for TimerFired).
	Deadline, Time float64
}

// emitTimer publishes a timer transition to every subscriber.
func (r *Rank) emitTimer(kind TimerKind, peer int, op string, deadline float64) {
	if len(r.cluster.obs) == 0 {
		return
	}
	ev := TimerEvent{Kind: kind, Rank: r.id, Peer: peer, Op: op, Deadline: deadline, Time: r.clock}
	for _, o := range r.cluster.obs {
		o.OnTimer(ev)
	}
}

// takePushback pops the pushed-back head message for a pair, if any.
func (r *Rank) takePushback(src int) (message, bool) {
	msg, ok := r.pushback[src]
	if ok {
		delete(r.pushback, src)
	}
	return msg, ok
}

// timeoutWait accounts an expiry: the span to the deadline is WaitTime,
// the clock lands exactly on the deadline.
func (r *Rank) timeoutWait(peer int, deadline float64) {
	if deadline > r.clock {
		r.stats.WaitTime += deadline - r.clock
		r.emit(Segment{Kind: SegWait, Start: r.clock, End: deadline, Peer: peer})
		r.clock = deadline
	}
}

// RecvTimeout receives the next message from rank src unless the wait
// would pass the virtual deadline clock+timeout. On RecvOK the returned
// slice and all accounting are identical to Recv. See the package-level
// timer rules for how expiry stays deterministic; timeout must be
// positive.
func (r *Rank) RecvTimeout(src int, timeout float64) ([]float64, RecvOutcome) {
	if src < 0 || src >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d receiving from invalid rank %d", r.id, src))
	}
	if !(timeout > 0) {
		panic(fmt.Sprintf("sim: rank %d RecvTimeout with non-positive timeout %g", r.id, timeout))
	}
	r.crashCheck()
	deadline := r.clock + timeout
	r.emitTimer(TimerArmed, src, "recv", deadline)
	// A message pushed back by an earlier expiry is the FIFO head.
	if msg, ok := r.takePushback(src); ok {
		return r.recvDecide(src, msg, deadline)
	}
	// recvTimeoutEvent owns the fast dequeue try (and the wake of a sender
	// parked on the reopened buffer).
	msg, got, exited := r.cluster.eng.recvTimeoutEvent(r, src, deadline)
	switch {
	case got:
		return r.recvDecide(src, msg, deadline)
	case exited:
		r.emitTimer(TimerCancelled, src, "recv", deadline)
		return nil, RecvPeerExited
	default:
		r.emitTimer(TimerFired, src, "recv", deadline)
		r.timeoutWait(src, deadline)
		return nil, RecvTimedOut
	}
}

// recvDecide applies the timer rule to a message in hand: deliver it if
// its stamp beats the deadline, otherwise push it back and expire.
func (r *Rank) recvDecide(src int, msg message, deadline float64) ([]float64, RecvOutcome) {
	if msg.arrival < deadline {
		r.emitTimer(TimerCancelled, src, "recv", deadline)
		return r.finishRecv(src, msg), RecvOK
	}
	if r.pushback == nil {
		r.pushback = make(map[int]message, 2)
	}
	r.pushback[src] = msg
	r.emitTimer(TimerFired, src, "recv", deadline)
	r.timeoutWait(src, deadline)
	return nil, RecvTimedOut
}

// PeerExit reports whether rank id has exited and, if it failed, the
// error it exited with. The exit record is published before the exit word
// this reads, so the answer is safe to use whenever it says exited — in
// particular after a RecvTimeout that returned RecvPeerExited or a
// SendTimeout that returned SendPeerExited. Whether a still-running peer
// is seen as exited a moment later is a real-time race; only those
// outcomes make it a virtual-time fact.
func (r *Rank) PeerExit(id int) (exited bool, clean bool, err error) {
	if id < 0 || id >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d querying invalid rank %d", r.id, id))
	}
	if !r.cluster.exited[id].Load() {
		return false, false, nil
	}
	ei := r.cluster.exits[id]
	return true, ei.status == exitClean, ei.err
}

// SendTimeout transmits like Send but bounds the park on a full pair buffer
// by the virtual deadline clock+timeout (the deadline is taken after the
// send's α/β cost, which is always paid). A copy that
// cannot be enqueued by the deadline — or whose receiver exited with the
// buffer full — is lost; under a fault plan that duplicates the message
// the copies share one deadline and delivery stops at the first failed
// copy. Timeout must be positive.
func (r *Rank) SendTimeout(dst int, data []float64, timeout float64) SendOutcome {
	if dst < 0 || dst >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d sending to invalid rank %d", r.id, dst))
	}
	if !(timeout > 0) {
		panic(fmt.Sprintf("sim: rank %d SendTimeout with non-positive timeout %g", r.id, timeout))
	}
	r.crashCheck()
	k := len(data)
	msgs := r.cluster.messagesFor(k)
	r.stats.WordsSent += float64(k)
	r.stats.MsgsSent += msgs
	alpha, beta := r.cluster.cost.linkParams(r.id, dst)
	af, bf := 1.0, 1.0
	fp := r.cluster.cost.Faults
	if fp != nil {
		af, bf = fp.degradeFactors(r.id, dst, r.clock)
		alpha *= af
		beta *= bf
	}
	dt := alpha*msgs + beta*float64(k)
	r.stats.SendTime += dt
	start := r.clock
	r.emit(Segment{Kind: SegSend, Start: start, End: start + dt, Peer: dst, Words: k, Msgs: msgs})
	r.clock += dt
	deadline := r.clock + timeout
	r.emitTimer(TimerArmed, dst, "send", deadline)
	cp := make([]float64, k)
	copy(cp, data)
	seq := r.sendCount
	r.sendCount++
	if fp != nil {
		if (af != 1 || bf != 1) && len(r.cluster.obs) > 0 {
			r.emitFault(FaultEvent{
				Kind: FaultDegraded, Src: r.id, Dst: dst, Seq: seq,
				Time: start, Words: k, AlphaFactor: af, BetaFactor: bf,
			})
		}
		drop, dup, corrupt, dupCorrupt := fp.messageFate(r.id, dst, seq, r.clock)
		if len(r.cluster.obs) > 0 {
			if corrupt && k > 0 {
				r.emitFault(FaultEvent{Kind: FaultCorrupt, Src: r.id, Dst: dst, Seq: seq, Time: r.clock, Words: k, Copy: copyPrimary})
			}
			if dup {
				r.emitFault(FaultEvent{Kind: FaultDup, Src: r.id, Dst: dst, Seq: seq, Time: r.clock, Words: k})
				if dupCorrupt && k > 0 {
					r.emitFault(FaultEvent{Kind: FaultCorrupt, Src: r.id, Dst: dst, Seq: seq, Time: r.clock, Words: k, Copy: copyDup})
				}
			}
			if drop {
				r.emitFault(FaultEvent{Kind: FaultDrop, Src: r.id, Dst: dst, Seq: seq, Time: r.clock, Words: k})
			}
		}
		// Same copy semantics as Send: the duplicate rolls its own
		// corruption fate and survives a primary drop.
		if dup {
			extra := make([]float64, k)
			copy(extra, data)
			if dupCorrupt && k > 0 {
				extra[fp.corruptIndex(r.id, dst, seq, copyDup, k)] += 1.0
			}
			if out := r.deliverDeadline(dst, message{data: extra, arrival: r.clock, alphaF: af, betaF: bf}, deadline); out != SendOK {
				return out
			}
		}
		if corrupt && k > 0 {
			cp[fp.corruptIndex(r.id, dst, seq, copyPrimary, k)] += 1.0
		}
		if drop {
			r.emitTimer(TimerCancelled, dst, "send", deadline)
			return SendOK // the sender has paid; the network loses the primary copy
		}
	}
	return r.deliverDeadline(dst, message{data: cp, arrival: r.clock, alphaF: af, betaF: bf}, deadline)
}

// deliverDeadline enqueues one copy with a virtual deadline on the block.
// It resolves the timer event for the whole SendTimeout: SendOK cancels
// it, the failure outcomes fire or cancel it exactly once.
func (r *Rank) deliverDeadline(dst int, m message, deadline float64) SendOutcome {
	// sendDeadlineEvent tries the enqueue itself (and notifies a receiver
	// parked on the empty pair).
	sent, exited := r.cluster.eng.sendDeadlineEvent(r, dst, m, deadline)
	switch {
	case sent:
		r.emitTimer(TimerCancelled, dst, "send", deadline)
		return SendOK
	case exited:
		r.emitTimer(TimerCancelled, dst, "send", deadline)
		return SendPeerExited
	default:
		r.emitTimer(TimerFired, dst, "send", deadline)
		r.timeoutWait(dst, deadline)
		return SendTimedOut
	}
}
