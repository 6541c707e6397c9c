package sim

import "fmt"

// Observer is the simulation event bus: a subscriber receives every
// timeline segment, phase mark, fault, crash and deadlock as it happens,
// while the run is still in flight. The built-in tracer is one subscriber
// (attached when Cost.Trace is set); internal/obs provides others — a
// bounded ring buffer, a streaming JSONL writer, a full collector feeding
// the Chrome-trace and summary exporters.
//
// Concurrency contract: OnCompute, OnSend, OnRecv, OnPhase, OnFault and
// OnCrash fire on the goroutine of the rank named in the event,
// concurrently across ranks; within one rank they arrive in virtual-time
// order. OnDeadlock fires on whichever goroutine resolved the quiescence,
// while every rank is parked. An observer that aggregates across ranks must therefore
// synchronize its own state. Every callback delivered during a run
// happens-before Run's return, so reading an observer after Run is
// race-free.
//
// Segments are delivered even when zero-duration (a send under zero α/β
// still moves words, which exporters count); the tracer drops those to
// keep Trace semantics unchanged.
type Observer interface {
	// OnCompute delivers a SegCompute segment (Flops carries γt-free
	// work, so energy can be attributed without dividing by duration).
	OnCompute(rank int, seg Segment)
	// OnSend delivers a SegSend segment. Under a degraded-link window the
	// segment's duration already carries the inflated αt/βt pricing —
	// trace and Stats totals agree by construction.
	OnSend(rank int, seg Segment)
	// OnRecv delivers the receive side: SegWait segments (idle time until
	// the message's arrival stamp) and, under ChargeReceiver, SegRecv
	// segments (the receiver's α/β cost). Discriminate on seg.Kind.
	OnRecv(rank int, seg Segment)
	// OnPhase delivers a Phase(name) annotation at the rank's clock.
	OnPhase(rank int, name string, at float64)
	// OnFault delivers a message-fault or degraded-window decision.
	OnFault(ev FaultEvent)
	// OnTimer delivers a virtual-timer transition (armed / fired /
	// cancelled) of a RecvTimeout or SendTimeout. Fires on the owning
	// rank's goroutine in virtual-time order, like segment callbacks.
	OnTimer(ev TimerEvent)
	// OnCrash delivers an injected rank crash as it fires.
	OnCrash(ev CrashEvent)
	// OnDeadlock delivers one deadlock abort; every aborted rank of one
	// detection emits its own event sharing the same Snapshot.
	OnDeadlock(ev DeadlockEvent)
}

// FaultKind classifies a FaultEvent.
type FaultKind int

// Fault event kinds.
const (
	// FaultDrop marks a message the network silently discarded.
	FaultDrop FaultKind = iota
	// FaultDup marks a message delivered twice.
	FaultDup
	// FaultCorrupt marks a delivered copy with one perturbed word.
	FaultCorrupt
	// FaultDegraded marks a send priced inside a degraded-link window.
	FaultDegraded
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultCorrupt:
		return "corrupt"
	case FaultDegraded:
		return "degraded"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent reports one deterministic fault decision applied to a send.
type FaultEvent struct {
	Kind     FaultKind
	Src, Dst int
	// Seq is the sender's running send count for the affected message —
	// the same key the FaultPlan hashed to decide the fate.
	Seq int
	// Time is the sender's virtual clock when the fate applied: the send's
	// start for FaultDegraded (the window is matched there), its end for
	// message fates (the fate takes effect as the message leaves).
	Time float64
	// Words is the payload size.
	Words int
	// Copy is the delivered copy a FaultCorrupt hit (0 primary, 1 dup).
	Copy int
	// AlphaFactor and BetaFactor are the combined degradation factors
	// (FaultDegraded only).
	AlphaFactor, BetaFactor float64
}

// CrashEvent reports an injected rank crash at the moment it fires.
type CrashEvent struct {
	Rank int
	// Scheduled is the plan's crash time; Time is the virtual clock at
	// which the crash actually fired (the first instrumented operation at
	// or after Scheduled).
	Scheduled, Time float64
	// Respawn tells whether the rank continues as a cold spare (true) or
	// dies with a CrashError (false).
	Respawn bool
}

// DeadlockEvent reports one rank aborted at quiescence. Err carries the
// full diagnostic including the cluster-wide Snapshot shared by all ranks
// of one detection.
type DeadlockEvent struct {
	Err *DeadlockError
}

// Phase marks a named algorithm-phase boundary on the rank's timeline at
// its current virtual clock. Phases are free: no virtual time passes, no
// counter moves — they only annotate bus events and the trace, so exported
// timelines show algorithm structure (replicate / SUMMA panel / reduce).
func (r *Rank) Phase(name string) {
	for _, o := range r.cluster.obs {
		o.OnPhase(r.id, name, r.clock)
	}
}

// emit publishes a timeline segment to every subscriber and remembers it
// as the rank's most recent segment (reported by deadlock snapshots).
func (r *Rank) emit(seg Segment) {
	r.lastSeg = seg
	r.hasSeg = true
	for _, o := range r.cluster.obs {
		switch seg.Kind {
		case SegCompute:
			o.OnCompute(r.id, seg)
		case SegSend:
			o.OnSend(r.id, seg)
		default:
			o.OnRecv(r.id, seg)
		}
	}
}

// emitFault publishes a fault decision to every subscriber.
func (r *Rank) emitFault(ev FaultEvent) {
	for _, o := range r.cluster.obs {
		o.OnFault(ev)
	}
}

// emitCrash publishes a crash to every subscriber.
func (r *Rank) emitCrash(ev CrashEvent) {
	for _, o := range r.cluster.obs {
		o.OnCrash(ev)
	}
}

// emitDeadlock publishes a deadlock abort to every subscriber. quiesce
// calls it before the abort resumes the blocked rank, so the delivery
// happens-before Run returns.
func (c *Cluster) emitDeadlock(ev DeadlockEvent) {
	for _, o := range c.obs {
		o.OnDeadlock(ev)
	}
}
