// Package sim provides a deterministic virtual-time distributed-memory
// runtime: the machine substrate on which the paper's algorithms execute.
//
// Each of p ranks executes the same SPMD function, scheduled by the event
// engine (event.go): a rank runs until it would block, parks, and is resumed
// exactly when what it waits for holds, so runs reach p ≥ 10⁶. Ranks
// exchange []float64 messages over per-pair FIFO queues, wired on demand as
// pairs first communicate (see mailbox.go) so memory follows the pairs a
// program actually uses. Every rank carries a virtual clock in seconds:
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
// pattern, never on which rank the host happened to run when, so simulated
// times are exactly reproducible.
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
// the engine detects quiescence exactly, so hangs — mismatched
// point-to-point programs, sends to exited ranks, dropped messages — become
// diagnostic errors naming the blocked ranks the instant no rank can run
// (DeadlockError), never after a real-time wait. internal/resilience builds
// recovering algorithms on top of these hooks.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
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
	// ChanCap overrides DefaultChanCap, the per-pair queue buffer in
	// messages. Zero means the default; negative values are rejected.
	ChanCap int
	// Workers bounds how many ranks the event engine lets run
	// concurrently. Zero means GOMAXPROCS; negative values are rejected.
	// It never affects clocks, counters, fault decisions or per-rank
	// observer streams — see event.go.
	Workers int
	// Faults optionally injects deterministic failures (crashes, message
	// drops/duplications/corruptions, degraded links); nil runs fault-free.
	Faults *FaultPlan
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
	exitAborted // deadlock abort or cancellation
)

type exitInfo struct {
	status exitStatus
	err    error
}

// Cluster is a set of p ranks wired with per-pair FIFO queues, created on
// demand; see mailbox.go.
type Cluster struct {
	p      int
	cost   Cost
	bufCap int
	mail   []mailbox // mail[dst].queues[src]
	tracer *tracer
	// obs lists the event-bus subscribers (Cost.Observers plus the tracer
	// when tracing).
	obs []Observer

	// abortErr[id] is the diagnostic the engine aborted rank id with,
	// written under the engine lock before the rank is resumed to unwind.
	abortErr []*DeadlockError
	// exits records how each rank left, and exited[id] is set — after
	// exits[id] is written — when rank id exits: a peer that loads it true
	// may read exits[id]. Messages the rank sent before exiting are still
	// queued and are drained before a receive is declared failed.
	exits  []exitInfo
	exited []atomic.Bool

	// cancelled is set — after cancelCause is written — when Cost.Context
	// is cancelled. See cancel.go.
	cancelled   atomic.Bool
	cancelCause error

	// eng is the event engine driving the run, set by Run before the first
	// rank starts. See event.go.
	eng *eventEngine
}

// DefaultChanCap is the per-pair queue buffer in messages (override per run
// with Cost.ChanCap). A sender parks (in real time, not virtual time) when a
// pair's buffer fills; virtual clocks are unaffected, and a send that can
// never complete — the receiver already exited, or the cluster is
// deadlocked — is aborted with a diagnostic error. The value is large
// enough that no algorithm in this repository queues that many unreceived
// messages on one pair. A pair's storage follows what it actually queues
// (evRing, mailbox.go), so ChanCap is only the blocking threshold, not a
// memory lever.
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
	c.mail = make([]mailbox, p)
	c.abortErr = make([]*DeadlockError, p)
	c.exits = make([]exitInfo, p)
	c.exited = make([]atomic.Bool, p)
	return c, nil
}

// P returns the number of ranks.
func (c *Cluster) P() int { return c.p }

// Rank is the handle an SPMD function uses to communicate, account
// compute, and track memory. A Rank must only be used from the goroutine
// it was handed to.
type Rank struct {
	cluster *Cluster
	id      int
	clock   float64
	stats   Stats
	curMem  float64

	// out and in memoize this rank's per-peer queue handles, fronted by
	// two-slot MRU caches for the alternating-peer hot loops (see
	// mailbox.go); only this goroutine touches them.
	out  map[int]*evRing
	in   map[int]*evRing
	outC pairCache
	inC  pairCache

	// sendCount keys fault-plan decisions; crashDone/crashPending
	// implement the injected-crash lifecycle.
	sendCount    int
	crashDone    bool
	crashPending bool

	// computeOps counts Compute calls; every 256th call checks whether an
	// earlier-clock rank is waiting for the worker slot (see
	// eventEngine.yieldIfBehind). conducted is set while a
	// conductor drives this rank's pricing from its own goroutine
	// (comm_ff.go): the rank can then neither yield nor unwind — the
	// conductor would park, or panic, on a parked member's record.
	computeOps uint32
	conducted  bool

	// lastSeg is the rank's most recent timeline segment (goroutine-local;
	// a deadlock snapshot, taken while the rank is parked, reports it as
	// the last thing the rank did).
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
	if !r.conducted {
		if r.computeOps++; r.computeOps&255 == 0 {
			r.cluster.eng.yieldIfBehind(r)
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
// virtual time; it may park in real time if the pair's buffer is full. Sending to oneself is allowed and costs the same as any other send.
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
// fault-free core, shared with the conducted collectives (comm_ff.go) so fast-forwarded sends are priced by the very same code.
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

// deliver enqueues a message on the pair's queue without blocking the
// thread. When the buffer is full the rank parks until space opens; a send
// that can never complete (deadlock or exited peer) is aborted at quiescence.
func (r *Rank) deliver(dst int, m message) {
	e := r.cluster.eng
	q := r.queueTo(dst)
	for {
		if q.push(m) {
			e.notifyEnqueue(r.id, dst)
			return
		}
		e.park(r, opBlockedSend, dst, 0, func() bool { return q.length() < int(q.sem) })
	}
}

// Recv receives the next message from rank src, parking until it arrives.
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
	msg, ok := r.cluster.eng.recvEvent(r, src)
	return r.finishRecvOrFail(src, msg, ok)
}

// finishRecvOrFail completes a receive: prices the message in hand, or —
// when the peer exited with nothing further queued (ok false) — panics
// naming the root cause. The exit notification happens-before the failed
// receive observing it, so the peer's exit record is safe to read. On a
// cancelled run the peer's exit is the
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
	// the pairs actually communicated over. It is a runtime-footprint
	// metric, not part of the simulated machine model.
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

// classifyRankExit maps a recovered panic (or fn's returned error) to the
// rank's exit status and error.
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

// joinRunErrors joins every rank's error into the run-level error. A single
// failure usually cascades into "peer exited" panics on other ranks, and the
// root cause must not be masked by whichever rank id happens to come first. Cancellation aborts EVERY rank
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
