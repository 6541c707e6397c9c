// Package obs is the observability layer over the simulator's event bus
// (sim.Observer): subscribers that capture a run's events — in full, in a
// bounded ring, or streamed as JSONL — and exporters that turn a capture
// into Chrome/Perfetto trace JSON, a communication matrix, and an energy
// summary splitting Eq. 2 into its γe/βe/αe/δe·M·T/εe terms per rank and
// along the critical path. The timeline analyses — critical path,
// utilization, power profile — read a Collector's segment events.
//
// The package never touches virtual clocks or counters: everything here
// observes; the physics stays in internal/sim and internal/core.
package obs

import (
	"fmt"
	"sync"

	"perfscale/internal/sim"
)

// Kind classifies an Event.
type Kind uint8

// Event kinds. The segment kinds mirror sim.SegmentKind; the rest carry
// fault, crash, deadlock and phase annotations.
const (
	KindCompute Kind = iota
	KindSend
	KindWait
	KindRecv
	KindPhase
	KindFault
	KindCrash
	KindDeadlock
	KindTimer
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindWait:
		return "wait"
	case KindRecv:
		return "recv"
	case KindPhase:
		return "phase"
	case KindFault:
		return "fault"
	case KindCrash:
		return "crash"
	case KindDeadlock:
		return "deadlock"
	case KindTimer:
		return "timer"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is the uniform record every subscriber stores: one timeline
// segment, phase mark, fault, crash or deadlock, flattened from the typed
// bus callbacks.
type Event struct {
	Kind Kind
	// Rank is the rank the event belongs to (the sender for faults).
	Rank int
	// Peer is the other rank: send/wait/recv peer, fault destination,
	// deadlock wait target; -1 when there is none.
	Peer int
	// Start and End bound the event in virtual seconds; instantaneous
	// events (phases, faults, crashes, deadlocks) have Start == End.
	Start, End float64
	// Words and Msgs carry communication volume, Flops compute work.
	Words int
	Msgs  float64
	Flops float64
	// Name carries the phase name, fault kind, or deadlock summary.
	Name string
}

// Duration returns End − Start.
func (e Event) Duration() float64 { return e.End - e.Start }

func segEvent(rank int, seg sim.Segment) Event {
	kind := KindCompute
	switch seg.Kind {
	case sim.SegSend:
		kind = KindSend
	case sim.SegWait:
		kind = KindWait
	case sim.SegRecv:
		kind = KindRecv
	}
	return Event{
		Kind: kind, Rank: rank, Peer: seg.Peer,
		Start: seg.Start, End: seg.End,
		Words: seg.Words, Msgs: seg.Msgs, Flops: seg.Flops,
	}
}

func faultEvent(ev sim.FaultEvent) Event {
	return Event{
		Kind: KindFault, Rank: ev.Src, Peer: ev.Dst,
		Start: ev.Time, End: ev.Time, Words: ev.Words,
		Name: ev.Kind.String(),
	}
}

func crashEvent(ev sim.CrashEvent) Event {
	name := "crash"
	if ev.Respawn {
		name = "crash-respawn"
	}
	return Event{Kind: KindCrash, Rank: ev.Rank, Peer: -1, Start: ev.Time, End: ev.Time, Name: name}
}

func timerEvent(ev sim.TimerEvent) Event {
	return Event{
		Kind: KindTimer, Rank: ev.Rank, Peer: ev.Peer,
		Start: ev.Time, End: ev.Time,
		Name: "timer-" + ev.Op + "-" + ev.Kind.String(),
	}
}

func deadlockEvent(ev sim.DeadlockEvent) Event {
	return Event{
		Kind: KindDeadlock, Rank: ev.Err.Rank, Peer: ev.Err.Peer,
		Name: "deadlock: blocked in " + ev.Err.Op,
	}
}

// Collector subscribes to a run and keeps every event, bucketed per rank.
// Per-rank callbacks append to their own rank's slice without locks: the
// bus serializes one rank's callbacks and delivers them in virtual-time
// order, whether they run on the rank's goroutine, on the engine worker
// stepping it, or on a collective's conducting member's. Only the deadlock
// events, sourced by the engine at quiescence, need a mutex.
// Memory is O(events) — use RingBuffer when that is too much at large p.
//
// Read a Collector only after sim.Run has returned.
type Collector struct {
	perRank [][]Event

	mu        sync.Mutex
	deadlocks []sim.DeadlockEvent
}

// NewCollector creates a collector for a p-rank run. Pass it in
// Cost.Observers of a cluster with the same p.
func NewCollector(p int) *Collector {
	return &Collector{perRank: make([][]Event, p)}
}

// OnCompute implements sim.Observer.
func (c *Collector) OnCompute(rank int, seg sim.Segment) {
	c.perRank[rank] = append(c.perRank[rank], segEvent(rank, seg))
}

// OnSend implements sim.Observer.
func (c *Collector) OnSend(rank int, seg sim.Segment) {
	c.perRank[rank] = append(c.perRank[rank], segEvent(rank, seg))
}

// OnRecv implements sim.Observer.
func (c *Collector) OnRecv(rank int, seg sim.Segment) {
	c.perRank[rank] = append(c.perRank[rank], segEvent(rank, seg))
}

// OnPhase implements sim.Observer.
func (c *Collector) OnPhase(rank int, name string, at float64) {
	c.perRank[rank] = append(c.perRank[rank], Event{Kind: KindPhase, Rank: rank, Peer: -1, Start: at, End: at, Name: name})
}

// OnFault implements sim.Observer; the event lands on the sender's bucket.
func (c *Collector) OnFault(ev sim.FaultEvent) {
	c.perRank[ev.Src] = append(c.perRank[ev.Src], faultEvent(ev))
}

// OnCrash implements sim.Observer.
func (c *Collector) OnCrash(ev sim.CrashEvent) {
	c.perRank[ev.Rank] = append(c.perRank[ev.Rank], crashEvent(ev))
}

// OnTimer implements sim.Observer; timer transitions belong to the owning
// rank, so they land on its bucket like segments.
func (c *Collector) OnTimer(ev sim.TimerEvent) {
	c.perRank[ev.Rank] = append(c.perRank[ev.Rank], timerEvent(ev))
}

// OnDeadlock implements sim.Observer. It fires on whichever goroutine
// resolved the quiescence, so the events go to a mutex-protected list instead of the per-rank
// buckets (which the ranks' callbacks still own at that moment).
func (c *Collector) OnDeadlock(ev sim.DeadlockEvent) {
	c.mu.Lock()
	c.deadlocks = append(c.deadlocks, ev)
	c.mu.Unlock()
}

// P returns the rank count the collector was created for.
func (c *Collector) P() int { return len(c.perRank) }

// Rank returns one rank's events in virtual-time order.
func (c *Collector) Rank(rank int) []Event { return c.perRank[rank] }

// Deadlocks returns the deadlock aborts observed, one per aborted rank.
func (c *Collector) Deadlocks() []sim.DeadlockEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sim.DeadlockEvent(nil), c.deadlocks...)
}
