// Package sim provides a deterministic virtual-time distributed-memory
// runtime: the machine substrate on which the paper's algorithms execute.
//
// Each of p ranks runs as a goroutine executing the same SPMD function.
// Ranks exchange []float64 messages over per-pair FIFO queues, wired on
// demand as pairs first communicate (see mailbox.go) so clusters of 10k+
// ranks stay cheap to create. Every rank carries a virtual clock in seconds:
//
//   - computing f flops advances the clock by γt·f,
//   - sending k words advances the sender's clock by αt·⌈k/m⌉ + βt·k
//     (one latency per maximal message of m words),
//   - receiving waits: the receiver's clock becomes the maximum of its own
//     clock and the sender's clock at the moment the message left.
//
// With these semantics a fully overlapped exchange (every rank sends then
// receives, as in Cannon shifts) costs one αt + k·βt per step, matching the
// paper's timing model (Eq. 1); synchronization is carried by messages, as
// the paper assumes. Clock values depend only on the program's communication
// pattern, never on the Go scheduler, so simulated times are exactly
// reproducible.
//
// Buffers follow one rule: Send and every collective read the caller's data
// and leave it alone, and what Recv or a collective returns belongs to the
// caller. Two methods trade that for fewer allocations and say so in their
// names: Comm.ShiftOwned surrenders its argument, and Comm.BcastLargeInto
// (dst, root, data) may build its result in dst's storage, append-style —
// use the returned slice, and dst must not overlap data.
//
// Per-rank counters record flops, words/messages sent and received, and the
// peak of an explicitly tracked memory allocation count; the core package
// prices these counters with the paper's energy model.
//
// The runtime is robust under failure: a seeded FaultPlan injects rank
// crashes, message drops/duplications/corruptions and degraded-link windows
// deterministically (keyed on rank, virtual clock and send count only), and
// a real-time deadlock watchdog converts hangs — mismatched point-to-point
// programs, sends to exited ranks, dropped messages — into diagnostic
// errors naming the blocked ranks. internal/resilience builds recovering
// algorithms on top of these hooks.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Cost holds the timing parameters the runtime uses to advance virtual
// clocks. Energy parameters are applied after the run by internal/core.
type Cost struct {
	// GammaT is seconds per flop.
	GammaT float64
	// BetaT is seconds per word.
	BetaT float64
	// AlphaT is seconds per message.
	AlphaT float64
	// MaxMsgWords is m, the largest message the network carries in one
	// latency; longer sends are charged ⌈k/m⌉ latencies. Zero means
	// unlimited.
	MaxMsgWords int
	// Links optionally replaces AlphaT/BetaT with per-pair values (torus
	// hop counts, intra- vs inter-node links). Nil means uniform links.
	Links LinkModel
	// ChargeReceiver switches to the conservative accounting where the
	// receiver also pays αt + k·βt instead of only waiting for the sender —
	// the DESIGN.md clock-semantics ablation. It doubles the communication
	// constant of symmetric exchanges but leaves every scaling shape
	// unchanged.
	ChargeReceiver bool
	// Trace records per-rank timeline segments (compute/send/wait/recv)
	// for critical-path and power-profile analysis; Result.Trace carries
	// them after the run.
	Trace bool
	// Observers subscribes event-bus listeners to the run: every timeline
	// segment, phase mark, fault, crash and deadlock is delivered as it
	// happens (see Observer for the concurrency contract). The built-in
	// tracer is appended as one more subscriber when Trace is set. An
	// empty list costs nothing on the hot path.
	Observers []Observer
	// ChanCap overrides DefaultChanCap, the per-pair channel buffer in
	// messages. Zero means the default; negative values are rejected.
	ChanCap int
	// Wiring selects how per-pair queues are allocated: sparse on-demand
	// mailboxes (the default, memory ∝ active pairs) or the dense p×p
	// matrix (memory ∝ p², kept for comparison benchmarks). The mode never
	// affects clocks or counters — see mailbox.go.
	Wiring Wiring
	// Runtime selects the execution backend: one live goroutine per rank
	// under the Go scheduler (the default) or the event engine, which
	// schedules ranks as continuations on a sharded virtual-time run queue
	// and reaches p ≥ 10⁶. Like Wiring, the backend never affects clocks,
	// counters, fault decisions or per-rank observer streams — see
	// event.go.
	Runtime Runtime
	// Workers bounds how many ranks the event engine lets run
	// concurrently (RuntimeEvent only). Zero means GOMAXPROCS; negative
	// values are rejected.
	Workers int
	// Faults optionally injects deterministic failures (crashes, message
	// drops/duplications/corruptions, degraded links); nil runs fault-free.
	Faults *FaultPlan
	// WatchdogTimeout is the REAL-time window of cluster-wide inactivity
	// after which the deadlock watchdog aborts blocked ranks with a
	// diagnostic error instead of letting the run hang (mismatched
	// point-to-point programs, drops, sends to exited ranks). Zero means
	// DefaultWatchdogTimeout; negative disables the watchdog.
	WatchdogTimeout time.Duration
	// Context optionally bounds the run in REAL time: when it is cancelled
	// (deadline, explicit cancel, client hang-up) every rank is aborted at
	// its next instrumented operation and blocked ranks are released
	// immediately, so an abandoned run stops consuming CPU. Run collapses
	// the per-rank aborts into one error wrapping context.Cause, so
	// errors.Is(err, context.Canceled) or context.DeadlineExceeded reports
	// why. Nil leaves the run unbounded. See cancel.go.
	Context context.Context
}

// linkParams returns the effective per-message latency and per-word time
// for a pair.
func (c Cost) linkParams(src, dst int) (alpha, beta float64) {
	if c.Links != nil {
		return c.Links.Latency(src, dst), c.Links.TimePerWord(src, dst)
	}
	return c.AlphaT, c.BetaT
}

// Stats are the quantities one rank accumulated during a run.
type Stats struct {
	// Flops is F, the floating-point operations executed.
	Flops float64
	// WordsSent and MsgsSent are W and S of the paper's per-processor model.
	WordsSent float64
	MsgsSent  float64
	// WordsRecv and MsgsRecv count the receiving side (the bounds of
	// Section III count words "sent and received"). MsgsRecv counts the
	// same ⌈k/m⌉ network messages per transfer as MsgsSent, so the two
	// sides of every pair agree for any MaxMsgWords.
	WordsRecv float64
	MsgsRecv  float64
	// PeakMemWords is the high-water mark of tracked allocations, the M of
	// the energy model.
	PeakMemWords float64
	// Time is the rank's final virtual clock in seconds.
	Time float64

	// ComputeTime, SendTime, RecvTime and WaitTime decompose the clock:
	// γt·F, the α/β cost of sends, the α/β cost of receives (only under
	// ChargeReceiver), and the idle time spent waiting for senders.
	// ComputeTime + SendTime + RecvTime + WaitTime == Time.
	ComputeTime float64
	SendTime    float64
	RecvTime    float64
	WaitTime    float64
}

type message struct {
	data    []float64
	arrival float64 // sender's virtual clock when the message left
	// alphaF and betaF are the degraded-link factors the sender applied
	// (1 when no degradation window matched). Carrying them with the
	// message lets a ChargeReceiver receive price the link with exactly
	// the factors the send paid, keeping both ends of one transfer
	// consistent even when the receiver's clock has left the window.
	alphaF, betaF float64
}

// exitStatus records how a rank left the run, so a peer's failed Recv can
// name the root cause instead of a generic "exited without sending".
type exitStatus int

const (
	exitRunning exitStatus = iota
	exitClean              // fn returned nil
	exitFailed             // fn returned an error
	exitPanicked
	exitCrashed // injected hard crash
	exitAborted // watchdog abort
)

type exitInfo struct {
	status exitStatus
	err    error
}

// Cluster is a set of p ranks wired with per-pair FIFO queues, created on
// demand (sparse wiring, the default) or all up front (dense wiring); see
// mailbox.go.
type Cluster struct {
	p      int
	cost   Cost
	bufCap int
	mail   []mailbox // sparse wiring: mail[dst].queues[src]
	dense  [][]pairQ // dense wiring: dense[src][dst]; nil when sparse
	tracer *tracer
	// obs lists the event-bus subscribers (Cost.Observers plus the tracer
	// when tracing); lastSegs publishes each rank's most recent timeline
	// segment at blocking transitions, for deadlock snapshots.
	obs      []Observer
	lastSegs []atomic.Pointer[Segment]

	// states holds the packed per-rank blocking state the watchdog
	// samples (see watchdog.go); aborts/abortErr release blocked ranks
	// with a diagnostic; exits records each rank's exit status, written
	// before its exitCh closes (the close happens-before a peer's failed
	// receive, so reads after the exit notification are race-free).
	// lastSegs, states, aborts and timerCh serve the watchdog only and stay
	// nil under the event engine.
	states   []atomic.Uint64
	aborts   []chan struct{}
	abortErr []*DeadlockError
	exits    []exitInfo
	// exitCh[id] is closed when rank id exits, releasing peers blocked in
	// Recv on it. Messages the rank sent before exiting are still queued
	// and are drained before a receive is declared failed.
	exitCh []chan struct{}
	// timerDeadline[id] publishes rank id's armed virtual deadline
	// (Float64bits; zero means none) and timerCh[id] carries the
	// watchdog's fire token when the deadline expires at quiescence —
	// the virtual-timer machinery of RecvTimeout/SendTimeout (timer.go).
	timerDeadline []atomic.Uint64
	timerCh       []chan struct{}

	// cancelCh is closed — after cancelCause is written and cancelled set —
	// when Cost.Context is cancelled, waking every blocked rank; nil when
	// the run has no context. See cancel.go.
	cancelCh    chan struct{}
	cancelled   atomic.Bool
	cancelCause error

	// eng is the event engine driving the run under RuntimeEvent; nil
	// under the goroutine backend. Blocking operations branch on it to
	// park cooperatively instead of blocking their goroutine. See
	// event.go.
	eng *eventEngine
}

// DefaultChanCap is the per-pair queue buffer in messages (override per run
// with Cost.ChanCap). Senders block (in real time, not virtual time) when a
// pair's buffer fills; virtual clocks are unaffected, and a send that can
// never complete — the receiver already exited, or the cluster is
// deadlocked — is aborted by the watchdog with a diagnostic error. The
// value is a compromise: large enough that no algorithm in this repository
// queues that many unreceived messages on one pair, small enough that a
// goroutine-backend queue (a Go channel, which allocates its whole buffer
// eagerly) stays cheap to wire — large-p goroutine runs that create many
// pairs can lower it further. Under the event runtime a pair's storage
// follows what it actually queues (evRing, mailbox.go), so there ChanCap is
// only the blocking threshold, not a memory lever.
const DefaultChanCap = 64

// NewCluster creates a cluster of p ranks with the given timing costs.
func NewCluster(p int, cost Cost) (*Cluster, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sim: cluster size must be positive, got %d", p)
	}
	if cost.GammaT < 0 || cost.BetaT < 0 || cost.AlphaT < 0 || cost.MaxMsgWords < 0 {
		return nil, fmt.Errorf("sim: negative cost parameters: %+v", cost)
	}
	if cost.ChanCap < 0 {
		return nil, fmt.Errorf("sim: negative channel capacity %d", cost.ChanCap)
	}
	if cost.Wiring != WiringSparse && cost.Wiring != WiringDense {
		return nil, fmt.Errorf("sim: unknown wiring mode %d", cost.Wiring)
	}
	if cost.Runtime != RuntimeGoroutine && cost.Runtime != RuntimeEvent {
		return nil, fmt.Errorf("sim: unknown runtime mode %d", cost.Runtime)
	}
	if cost.Workers < 0 {
		return nil, fmt.Errorf("sim: negative worker count %d", cost.Workers)
	}
	if cost.Faults != nil {
		if err := cost.Faults.Validate(p); err != nil {
			return nil, err
		}
	}
	c := &Cluster{p: p, cost: cost}
	c.obs = append(c.obs, cost.Observers...)
	if cost.Trace {
		c.tracer = &tracer{segments: make([][]Segment, p), phases: make([][]PhaseMark, p)}
		c.obs = append(c.obs, c.tracer)
	}
	c.bufCap = cost.ChanCap
	if c.bufCap == 0 {
		c.bufCap = DefaultChanCap
	}
	if cost.Wiring == WiringDense {
		c.dense = make([][]pairQ, p)
		for src := 0; src < p; src++ {
			c.dense[src] = make([]pairQ, p)
			for dst := 0; dst < p; dst++ {
				q := &c.dense[src][dst]
				if cost.Runtime == RuntimeEvent {
					q.rg.init(c.bufCap)
				} else {
					q.ch = make(chan message, c.bufCap)
				}
			}
		}
	} else {
		c.mail = make([]mailbox, p)
	}
	c.abortErr = make([]*DeadlockError, p)
	c.exits = make([]exitInfo, p)
	c.exitCh = make([]chan struct{}, p)
	c.timerDeadline = make([]atomic.Uint64, p)
	for i := range c.exitCh {
		c.exitCh[i] = make(chan struct{})
	}
	if cost.Runtime != RuntimeEvent {
		// Watchdog-only state (setState, watch, armTimer): the event engine
		// keeps its own wait records and releases blocked ranks through its
		// resume channels, so under it these would be dead weight — at
		// p = 10⁶, millions of allocations.
		c.lastSegs = make([]atomic.Pointer[Segment], p)
		c.states = make([]atomic.Uint64, p)
		c.aborts = make([]chan struct{}, p)
		c.timerCh = make([]chan struct{}, p)
		for i := range c.aborts {
			c.aborts[i] = make(chan struct{})
			c.timerCh[i] = make(chan struct{}, 1) // one pending fire token
		}
	}
	if cost.Context != nil {
		c.cancelCh = make(chan struct{})
	}
	return c, nil
}

// P returns the number of ranks.
func (c *Cluster) P() int { return c.p }

// Rank is the per-goroutine handle an SPMD function uses to communicate,
// account compute, and track memory. A Rank must only be used from the
// goroutine it was handed to.
type Rank struct {
	cluster *Cluster
	id      int
	clock   float64
	stats   Stats
	curMem  float64

	// out and in memoize this rank's per-peer queue handles under sparse
	// wiring, fronted by two-slot MRU caches for the alternating-peer hot
	// loops (see mailbox.go); only this goroutine touches them.
	out  map[int]*pairQ
	in   map[int]*pairQ
	outC pairCache
	inC  pairCache

	// stateSeq shadows the watchdog state word's sequence counter (only
	// this goroutine writes it); sendCount keys fault-plan decisions;
	// crashDone/crashPending implement the injected-crash lifecycle.
	stateSeq     uint32
	sendCount    int
	crashDone    bool
	crashPending bool

	// computeOps counts Compute calls under the event engine; every 256th
	// call checks whether an earlier-clock rank is waiting for the worker
	// slot (see eventEngine.yieldIfBehind). conducted is set while a
	// conductor drives this rank's pricing from its own goroutine
	// (comm_ff.go): the rank can then neither yield nor unwind — the
	// conductor would park, or panic, on a parked member's record.
	computeOps uint32
	conducted  bool

	// lastSeg is the rank's most recent timeline segment (goroutine-local;
	// published to the cluster's lastSegs at blocking transitions so
	// deadlock snapshots can report what each rank last did).
	lastSeg Segment
	hasSeg  bool

	// pushback holds, per peer, a message whose arrival stamp lost to a
	// RecvTimeout deadline: it stays the FIFO head for the pair and is
	// returned by the next receive (timer.go). At most one per peer.
	pushback map[int]message

	// ffSeq counts this rank's collective calls per interned membership —
	// the rendezvous sequence number of conducted collectives (comm_ff.go).
	// Rank-local: every member counts its own calls, and the MPI ordering
	// contract keeps the counts aligned. A rank belongs to a handful of
	// communicators (row, column, fiber, world), so a linear scan suffices.
	ffSeq []ffSeqEntry
}

// ffSeqEntry is one membership's collective-call counter (see Rank.ffSeq).
type ffSeqEntry struct{ memb, seq uint32 }

// ID returns the rank's index in [0, P).
func (r *Rank) ID() int { return r.id }

// P returns the cluster size.
func (r *Rank) P() int { return r.cluster.p }

// Clock returns the rank's current virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Stats returns a snapshot of the rank's counters with Time filled in.
func (r *Rank) Stats() Stats {
	s := r.stats
	s.Time = r.clock
	return s
}

// Compute accounts flops floating-point operations: the clock advances by
// γt·flops. The caller performs the actual arithmetic itself.
func (r *Rank) Compute(flops float64) {
	if flops < 0 {
		panic("sim: negative flop count")
	}
	r.crashCheck()
	r.stats.Flops += flops
	dt := r.cluster.cost.GammaT * flops
	r.stats.ComputeTime += dt
	r.emit(Segment{Kind: SegCompute, Start: r.clock, End: r.clock + dt, Peer: -1, Flops: flops})
	r.clock += dt
	if e := r.cluster.eng; e != nil && !r.conducted {
		if r.computeOps++; r.computeOps&255 == 0 {
			e.yieldIfBehind(r)
		}
	}
}

// messagesFor returns the number of network messages needed for k words.
func (c *Cluster) messagesFor(k int) float64 {
	if k == 0 {
		return 1 // a zero-word message still costs one latency
	}
	if c.cost.MaxMsgWords <= 0 {
		return 1
	}
	return math.Ceil(float64(k) / float64(c.cost.MaxMsgWords))
}

// Send transmits a copy of data to rank dst. The sender's clock advances by
// one latency per maximal message plus βt per word. Send never blocks in
// virtual time; it may block in real time if the pair's channel buffer is
// full. Sending to oneself is allowed and costs the same as any other send.
func (r *Rank) Send(dst int, data []float64) {
	if dst < 0 || dst >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d sending to invalid rank %d", r.id, dst))
	}
	r.crashCheck()
	if r.cluster.cost.Faults == nil {
		r.deliver(dst, r.sendPriced(dst, data))
		return
	}
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
		// The duplicate is its own copy of the clean payload with an
		// independent corruption fate (keyed on the copy index), so a
		// corrupt+dup send can deliver one clean and one corrupted copy.
		// It also takes its own route through the network: a drop loses
		// only the primary, so drop+dup still delivers the duplicate —
		// which is what lets the timer-free resilience protocols survive
		// lossy links that duplicate traffic.
		if dup {
			extra := make([]float64, k)
			copy(extra, data)
			if dupCorrupt && k > 0 {
				extra[fp.corruptIndex(r.id, dst, seq, copyDup, k)] += 1.0
			}
			r.deliver(dst, message{data: extra, arrival: r.clock, alphaF: af, betaF: bf})
		}
		if corrupt && k > 0 {
			cp[fp.corruptIndex(r.id, dst, seq, copyPrimary, k)] += 1.0
		}
		if drop {
			return // the sender has paid; the network loses the primary copy
		}
	}
	r.deliver(dst, message{data: cp, arrival: r.clock, alphaF: af, betaF: bf})
}

// sendPriced prices a fault-free send exactly like Send's body — counters,
// link parameters, SegSend emission, clock advance, payload copy, send
// sequence — and returns the message ready to enqueue. It is Send's
// fault-free core, shared with the event engine's conducted collectives
// (comm_ff.go) so fast-forwarded sends are priced by the very same code.
func (r *Rank) sendPriced(dst int, data []float64) message {
	m := r.sendPricedShared(dst, data)
	cp := make([]float64, len(data))
	copy(cp, data)
	m.data = cp
	return m
}

// sendPricedShared is sendPriced without the defensive payload copy, for
// conducted collectives (comm_ff.go) whose receiver provably does not
// retain the buffer past the conduct: pricing is identical, the copy is
// the only difference, and a copy is invisible to the Result.
func (r *Rank) sendPricedShared(dst int, data []float64) message {
	k := len(data)
	msgs := r.cluster.messagesFor(k)
	r.stats.WordsSent += float64(k)
	r.stats.MsgsSent += msgs
	alpha, beta := r.cluster.cost.linkParams(r.id, dst)
	dt := alpha*msgs + beta*float64(k)
	r.stats.SendTime += dt
	start := r.clock
	r.emit(Segment{Kind: SegSend, Start: start, End: start + dt, Peer: dst, Words: k, Msgs: msgs})
	r.clock += dt
	r.sendCount++
	return message{data: data, arrival: r.clock, alphaF: 1, betaF: 1}
}

// sendOwned is Send for callers that surrender the buffer (ShiftOwned):
// identical checks and pricing, minus the defensive copy. Fault-plan runs
// take the full Send path — degradation rewrites the message anyway, and
// resilience, not throughput, is what those runs measure.
func (r *Rank) sendOwned(dst int, data []float64) {
	if r.cluster.cost.Faults != nil {
		r.Send(dst, data)
		return
	}
	if dst < 0 || dst >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d sending to invalid rank %d", r.id, dst))
	}
	r.crashCheck()
	r.deliver(dst, r.sendPricedShared(dst, data))
}

// deliver enqueues a message on the pair's queue. The fast path never
// blocks; when the buffer is full the wait is published to the watchdog,
// which aborts the send if it can never complete (deadlock or exited peer).
// Under the event engine the rank parks instead of blocking its goroutine.
func (r *Rank) deliver(dst int, m message) {
	if e := r.cluster.eng; e != nil {
		e.deliverEvent(r, dst, m)
		return
	}
	ch := r.queueTo(dst).ch
	select {
	case ch <- m:
		return
	default:
	}
	r.setState(opBlockedSend, dst)
	select {
	case ch <- m:
		r.setState(opRunning, 0)
	case <-r.cluster.cancelCh:
		panic(cancelPanic{})
	case <-r.cluster.aborts[r.id]:
		r.abort()
	}
}

// Recv receives the next message from rank src, blocking until it arrives.
// The receiver's clock becomes max(own clock, sender's post-send clock).
func (r *Rank) Recv(src int) []float64 {
	if src < 0 || src >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d receiving from invalid rank %d", r.id, src))
	}
	r.crashCheck()
	// A message pushed back by an expired RecvTimeout stays the FIFO head.
	if msg, ok := r.takePushback(src); ok {
		return r.finishRecv(src, msg)
	}
	var msg message
	ok := true
	if e := r.cluster.eng; e != nil {
		msg, ok = e.recvEvent(r, src)
		return r.finishRecvOrFail(src, msg, ok)
	}
	ch := r.queueFrom(src).ch
	select {
	case msg = <-ch:
	default:
		// Nothing buffered: publish the wait so the watchdog can see it.
		r.setState(opBlockedRecv, src)
		select {
		case msg = <-ch:
			r.setState(opRunning, 0)
		case <-r.cluster.exitCh[src]:
			// The peer exited. Everything it ever sent was enqueued
			// before its exit notification, so drain the queue once
			// more before declaring the receive failed.
			select {
			case msg = <-ch:
				r.setState(opRunning, 0)
			default:
				ok = false
			}
		case <-r.cluster.cancelCh:
			panic(cancelPanic{})
		case <-r.cluster.aborts[r.id]:
			r.abort()
		}
	}
	return r.finishRecvOrFail(src, msg, ok)
}

// finishRecvOrFail completes a receive: prices the message in hand, or —
// when the peer exited with nothing further queued (ok false) — panics
// naming the root cause. The exit notification happens-before the failed
// receive observing it, so the peer's exit record is safe to read. Shared
// by both backends' Recv paths. On a cancelled run the peer's exit is the
// cancellation seen second-hand, so the rank unwinds as cancelled.
func (r *Rank) finishRecvOrFail(src int, msg message, ok bool) []float64 {
	if !ok {
		r.cancelCheck()
		switch ei := r.cluster.exits[src]; ei.status {
		case exitClean:
			panic(fmt.Sprintf("sim: rank %d receiving from rank %d, which exited without sending (clean exit; mismatched communication pattern?)", r.id, src))
		case exitCrashed:
			panic(fmt.Sprintf("sim: rank %d receiving from rank %d, which crashed (root cause: %v)", r.id, src, ei.err))
		default:
			panic(fmt.Sprintf("sim: rank %d receiving from rank %d, which failed (cascade; root cause: %v)", r.id, src, ei.err))
		}
	}
	return r.finishRecv(src, msg)
}

// finishRecv prices and accounts a message in hand: the wait to its
// arrival stamp, the ChargeReceiver α/β cost, and the receive counters.
// Shared by Recv and RecvTimeout so both deliver identically.
func (r *Rank) finishRecv(src int, msg message) []float64 {
	if msg.arrival > r.clock {
		r.stats.WaitTime += msg.arrival - r.clock
		r.emit(Segment{Kind: SegWait, Start: r.clock, End: msg.arrival, Peer: src, Words: len(msg.data)})
		r.clock = msg.arrival
	}
	msgs := r.cluster.messagesFor(len(msg.data))
	if r.cluster.cost.ChargeReceiver {
		// Price the receive with the same per-link parameters and
		// degraded-window factors the send paid (carried in the
		// message), so both ends of one transfer always agree.
		alpha, beta := r.cluster.cost.linkParams(src, r.id)
		alpha *= msg.alphaF
		beta *= msg.betaF
		dt := alpha*msgs + beta*float64(len(msg.data))
		r.stats.RecvTime += dt
		r.emit(Segment{Kind: SegRecv, Start: r.clock, End: r.clock + dt, Peer: src, Words: len(msg.data), Msgs: msgs})
		r.clock += dt
	}
	// The receive side counts the same ⌈k/m⌉ network messages the send
	// side was charged, so the per-pair sent/received counters agree for
	// every MaxMsgWords.
	r.stats.WordsRecv += float64(len(msg.data))
	r.stats.MsgsRecv += msgs
	return msg.data
}

// SendRecv sends sendData to dst and receives from src, overlapping the two
// as the model allows: the send is posted first, so a symmetric exchange
// among all ranks costs a single αt + k·βt step.
func (r *Rank) SendRecv(dst int, sendData []float64, src int) []float64 {
	r.Send(dst, sendData)
	return r.Recv(src)
}

// Alloc records the allocation of words words of tracked memory and updates
// the peak. Algorithms call Alloc/Free around their main buffers so that the
// energy model's M reflects the algorithm's true footprint.
func (r *Rank) Alloc(words int) {
	if words < 0 {
		panic("sim: negative allocation")
	}
	r.curMem += float64(words)
	if r.curMem > r.stats.PeakMemWords {
		r.stats.PeakMemWords = r.curMem
	}
}

// Free records the release of words words of tracked memory.
func (r *Rank) Free(words int) {
	if words < 0 {
		panic("sim: negative free")
	}
	r.curMem -= float64(words)
	if r.curMem < 0 {
		panic(fmt.Sprintf("sim: rank %d freed more memory than allocated", r.id))
	}
}

// TrackedVec allocates a tracked []float64 of length n. The caller should
// Free(n) when the buffer's lifetime ends if it wants non-monotone
// footprints; otherwise the peak simply includes it.
func (r *Rank) TrackedVec(n int) []float64 {
	r.Alloc(n)
	return make([]float64, n)
}

// Result holds the outcome of a cluster run.
type Result struct {
	// PerRank has one Stats per rank, indexed by rank id.
	PerRank []Stats
	// ActivePairs is the number of directed rank pairs that were wired:
	// the pairs actually communicated over under sparse wiring, p² under
	// dense. It is a runtime-footprint metric, not part of the simulated
	// machine model.
	ActivePairs int
	// Trace carries the per-rank timelines when Cost.Trace was set.
	Trace *Trace
}

// Time returns the simulated runtime: the maximum final clock over ranks.
func (res *Result) Time() float64 {
	t := 0.0
	for _, s := range res.PerRank {
		if s.Time > t {
			t = s.Time
		}
	}
	return t
}

// MaxStats returns the per-processor maxima of every counter — the
// quantities the paper's per-processor model prices (its F, W, S, M are
// "the counts on the busiest processor", since the machine is homogeneous
// and the algorithms balanced).
func (res *Result) MaxStats() Stats {
	var m Stats
	for _, s := range res.PerRank {
		m.Flops = math.Max(m.Flops, s.Flops)
		m.WordsSent = math.Max(m.WordsSent, s.WordsSent)
		m.MsgsSent = math.Max(m.MsgsSent, s.MsgsSent)
		m.WordsRecv = math.Max(m.WordsRecv, s.WordsRecv)
		m.MsgsRecv = math.Max(m.MsgsRecv, s.MsgsRecv)
		m.PeakMemWords = math.Max(m.PeakMemWords, s.PeakMemWords)
		m.Time = math.Max(m.Time, s.Time)
		m.ComputeTime = math.Max(m.ComputeTime, s.ComputeTime)
		m.SendTime = math.Max(m.SendTime, s.SendTime)
		m.RecvTime = math.Max(m.RecvTime, s.RecvTime)
		m.WaitTime = math.Max(m.WaitTime, s.WaitTime)
	}
	return m
}

// TotalStats returns counters summed over ranks (Time is the max).
func (res *Result) TotalStats() Stats {
	var t Stats
	for _, s := range res.PerRank {
		t.Flops += s.Flops
		t.WordsSent += s.WordsSent
		t.MsgsSent += s.MsgsSent
		t.WordsRecv += s.WordsRecv
		t.MsgsRecv += s.MsgsRecv
		t.PeakMemWords += s.PeakMemWords
		t.Time = math.Max(t.Time, s.Time)
		t.ComputeTime += s.ComputeTime
		t.SendTime += s.SendTime
		t.RecvTime += s.RecvTime
		t.WaitTime += s.WaitTime
	}
	return t
}

// Run executes fn on every rank of a fresh cluster and returns per-rank
// statistics. It returns the first error any rank reported; a panic inside
// fn is recovered and returned as an error naming the rank.
func Run(p int, cost Cost, fn func(r *Rank) error) (*Result, error) {
	c, err := NewCluster(p, cost)
	if err != nil {
		return nil, err
	}
	return c.Run(fn)
}

// Run executes fn on every rank. A Cluster must not be reused after Run:
// leftover messages from a failed run would corrupt a second one.
func (c *Cluster) Run(fn func(r *Rank) error) (*Result, error) {
	if c.cost.Runtime == RuntimeEvent {
		return c.runEvent(fn)
	}
	res := &Result{PerRank: make([]Stats, c.p)}
	if c.tracer != nil {
		res.Trace = &Trace{Segments: c.tracer.segments, Phases: c.tracer.phases}
	}
	errs := make([]error, c.p)
	stop := make(chan struct{})
	if c.cost.WatchdogTimeout >= 0 {
		timeout := c.cost.WatchdogTimeout
		if timeout == 0 {
			timeout = DefaultWatchdogTimeout
		}
		go c.watch(stop, timeout)
	}
	defer c.watchContext()()
	var wg sync.WaitGroup
	for id := 0; id < c.p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{cluster: c, id: id}
			defer func() {
				status, err := c.classifyRankExit(recover(), id, errs[id])
				errs[id] = err
				res.PerRank[id] = r.Stats()
				// Record how this rank left (read by peers after they
				// observe the exit notification) and tell the watchdog
				// it is gone, then close the exit channel: a peer's
				// unmatched Recv becomes a clean error instead of a
				// deadlock; already-queued messages are delivered first.
				c.exits[id] = exitInfo{status: status, err: errs[id]}
				r.setState(opExited, 0)
				close(c.exitCh[id])
			}()
			errs[id] = fn(r)
		}(id)
	}
	wg.Wait()
	close(stop)
	res.ActivePairs = c.ActivePairs()
	return res, joinRunErrors(c, errs)
}

// classifyRankExit maps a recovered panic (or fn's returned error) to the
// rank's exit status and error, shared by both backends' per-rank
// wrappers.
func (c *Cluster) classifyRankExit(rec any, id int, fnErr error) (exitStatus, error) {
	if rec == nil {
		if fnErr != nil {
			return exitFailed, fnErr
		}
		return exitClean, nil
	}
	switch p := rec.(type) {
	case crashPanic:
		return exitCrashed, p.err
	case abortPanic:
		return exitAborted, p.err
	case cancelPanic:
		return exitAborted, &CancelledError{Rank: id, Cause: c.cancelCause}
	default:
		if perr, ok := rec.(error); ok {
			// Keep typed error panics (e.g. a protocol layer's overflow
			// error) reachable via errors.As after the recover.
			return exitPanicked, fmt.Errorf("sim: rank %d panicked: %w", id, perr)
		}
		return exitPanicked, fmt.Errorf("sim: rank %d panicked: %v", id, rec)
	}
}

// joinRunErrors joins every rank's error into the run-level error, shared
// by both backends. A single failure usually cascades into "peer exited"
// panics on other ranks, and the root cause must not be masked by
// whichever rank id happens to come first. Cancellation aborts EVERY rank
// with the same cause, so those are collapsed into one run-level error
// instead of p copies — unless some rank failed for a real reason first,
// which then takes precedence.
func joinRunErrors(c *Cluster, errs []error) error {
	var all []error
	cancelledRanks := 0
	for id, err := range errs {
		if err == nil {
			continue
		}
		var ce *CancelledError
		if errors.As(err, &ce) {
			cancelledRanks++
			continue
		}
		all = append(all, fmt.Errorf("rank %d: %w", id, err))
	}
	if len(all) > 0 {
		return errors.Join(all...)
	}
	if cancelledRanks > 0 {
		return fmt.Errorf("sim: run cancelled (%d of %d ranks aborted): %w", cancelledRanks, c.p, c.cancelCause)
	}
	return nil
}
