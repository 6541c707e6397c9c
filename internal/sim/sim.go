// Package sim provides a deterministic virtual-time distributed-memory
// runtime: the machine substrate on which the paper's algorithms execute.
//
// Each of p ranks executes the same SPMD program, scheduled by the event
// engine (event.go): a rank runs until it would block, parks, and is resumed
// exactly when what it waits for holds, so runs reach p ≥ 10⁶. A program
// is a closure (Run), which the engine's worker goroutines run as a
// coroutine with a stack of its own (co.go), or a Stepper (RunSteps,
// step.go), a resumable state machine that they step with no stack per
// rank. Ranks
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
// use the returned slice, and dst must not overlap data. Phantom payloads
// (Phantom, phantom.go) are the one exception to the rule's copies: they
// are read-only, so the runtime prices them by length but never copies or
// combines them, and what a collective returns for one is a phantom too.
//
// Per-rank counters record flops, words/messages sent and received, and the
// peak of an explicitly tracked memory allocation count; the core package
// prices these counters with the paper's energy model. The timeline behind
// the counters is published on the Observer bus (observer.go), the one
// tracing mechanism; internal/obs captures and analyses it.
//
// The runtime is robust under failure: a seeded FaultPlan injects rank
// crashes, message drops/duplications/corruptions and degraded-link windows
// deterministically (keyed on rank, virtual clock and send count only), and
// the engine detects quiescence exactly, so hangs — mismatched
// point-to-point programs, sends to exited ranks, dropped messages — become
// diagnostic errors naming the blocked ranks the instant no rank can run
// (DeadlockError), never after a real-time wait. Virtual-time timers
// (timer.go) let a protocol notice silence; an infinite timeout never fires,
// so such a wait ends in the same DeadlockError. internal/resilience builds
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
	// Observers subscribes event-bus listeners to the run: every timeline
	// segment, phase mark, fault, crash and deadlock is delivered as it
	// happens (see Observer for the concurrency contract); internal/obs
	// builds captures, critical paths and power profiles on it. An empty
	// list costs nothing on the hot path.
	Observers []Observer
	// chanCap overrides defaultChanCap, the per-pair queue buffer in
	// messages; only this package's tests set it. Zero means the default;
	// negative values and values above 2³¹, more than the ring's uint32
	// cursors index, are rejected.
	chanCap int
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

// message is one queued transfer, 40 bytes: rings hold them by value.
type message struct {
	data    []float64
	arrival float64 // sender's virtual clock when the message left
	// deg holds the degraded-link factors the sender applied, nil when no
	// degradation window changed the link. Carrying them with the message
	// lets a ChargeReceiver receive price the link with exactly the
	// factors the send paid, keeping both ends of one transfer consistent
	// even when the receiver's clock has left the window.
	deg *linkFactors
}

// linkFactors are a degraded send's α and β multipliers.
type linkFactors struct{ alphaF, betaF float64 }

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
	mail   []mailbox // mail[dst].queues.get(src)
	// obs lists the event-bus subscribers (Cost.Observers).
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

// defaultChanCap is the per-pair queue buffer in messages (Cost.chanCap
// overrides it per run). A sender parks (in real time, not virtual time) when a
// pair's buffer fills; virtual clocks are unaffected, and a send that can
// never complete — the receiver already exited, or the cluster is
// deadlocked — is aborted with a diagnostic error. The value is large
// enough that no algorithm in this repository queues that many unreceived
// messages on one pair. A pair's storage follows what it actually queues
// (evRing, mailbox.go), so chanCap is only the blocking threshold, not a
// memory lever.
const defaultChanCap = 64

// NewCluster creates a cluster of p ranks with the given timing costs.
func NewCluster(p int, cost Cost) (*Cluster, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sim: cluster size must be positive, got %d", p)
	}
	if cost.GammaT < 0 || cost.BetaT < 0 || cost.AlphaT < 0 || cost.MaxMsgWords < 0 {
		return nil, fmt.Errorf("sim: negative cost parameters: %+v", cost)
	}
	if cost.chanCap < 0 {
		return nil, fmt.Errorf("sim: negative channel capacity %d", cost.chanCap)
	}
	if uint64(cost.chanCap) > 1<<31 {
		return nil, fmt.Errorf("sim: channel capacity %d above 2^31", cost.chanCap)
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
	c.bufCap = cost.chanCap
	if c.bufCap == 0 {
		c.bufCap = defaultChanCap
	}
	c.mail = make([]mailbox, p)
	c.abortErr = make([]*DeadlockError, p)
	c.exits = make([]exitInfo, p)
	c.exited = make([]atomic.Bool, p)
	return c, nil
}

// Rank is the handle an SPMD function uses to communicate, account
// compute, and track memory. A Rank has one caller at a time: whichever
// engine worker is stepping it (step.go), or running a closure rank's
// coroutine (co.go).
type Rank struct {
	cluster *Cluster
	id      int
	clock   float64
	stats   Stats
	curMem  float64

	// sendCount keys fault-plan decisions; crashDone/crashPending
	// implement the injected-crash lifecycle.
	sendCount    int
	crashDone    bool
	crashPending bool

	// computeOps counts Compute calls; every 256th call on a closure's
	// rank checks whether an earlier-clock rank is waiting for a worker
	// (see eventEngine.yieldIfBehind). conducted is set while a
	// conductor drives this rank's pricing from its own stack
	// (comm_ff.go): the rank can then neither yield nor unwind — the
	// conductor would park, or panic, on a parked member's record.
	computeOps uint32
	conducted  bool

	// lastSeg is the rank's most recent timeline segment (caller-local;
	// a deadlock snapshot, taken while the rank is parked, reports it as
	// the last thing the rank did).
	lastSeg Segment
	hasSeg  bool

	// pushback holds, per peer, a message whose arrival stamp lost to a
	// RecvTimeout deadline: it stays the FIFO head for the pair and is
	// returned by the next receive (timer.go). At most one per peer.
	pushback map[int]message

	// step is the rank's wait record and program (step.go); a closure's
	// holds its coroutine, which the Try forms refuse (Rank.stepped).
	step *stepState

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
	if !r.conducted && r.step.co != nil {
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
func (r *Rank) Send(dst int, data []float64) { r.send(dst, data, false) }

// send is Send; owned callers (ShiftOwned) surrender data. While the
// pair's buffer is full the rank parks, and the repeated trySend pushes
// the copies it kept.
func (r *Rank) send(dst int, data []float64, owned bool) {
	for !r.trySend(dst, data, owned) {
		r.park()
	}
}

// post is the body Send and TrySend share: it checks the peer, runs the
// crash check, prices the k-word send and rolls the fates of the copies
// the network delivers (sendFate). The message has no payload yet.
func (r *Rank) post(dst, k int) (m message, fates [2]copyFate, n int) {
	r.checkPeer(dst, "sending to")
	r.crashCheck()
	m, start := r.priceSend(dst, k)
	if r.cluster.cost.Faults == nil {
		return m, fates, 1 // one clean primary copy, rolled for nothing
	}
	fates, n, _ = r.sendFate(dst, k, m, start)
	return m, fates, n
}

// checkPeer panics unless peer is a rank of the cluster.
func (r *Rank) checkPeer(peer int, verb string) {
	if peer < 0 || peer >= r.cluster.p {
		panic(fmt.Sprintf("sim: rank %d %s invalid rank %d", r.id, verb, peer))
	}
}

// priceSend is the one place a send of k words is priced: the counters,
// the link's α/β under any degraded-link window, the SegSend segment, the
// clock advance and the send sequence. It returns the message to deliver,
// stamped and carrying the window's factors but with no payload yet, and
// the clock the send started at. post, SendTimeout and the conducted
// collectives (comm_ff.go) follow it with sendFate, and attach the payload
// themselves.
func (r *Rank) priceSend(dst, k int) (m message, start float64) {
	msgs := r.cluster.messagesFor(k)
	r.stats.WordsSent += float64(k)
	r.stats.MsgsSent += msgs
	alpha, beta := r.cluster.cost.linkParams(r.id, dst)
	if fp := r.cluster.cost.Faults; fp != nil {
		if af, bf := fp.degradeFactors(r.id, dst, r.clock); af != 1 || bf != 1 {
			m.deg = &linkFactors{af, bf}
			alpha *= af
			beta *= bf
		}
	}
	dt := alpha*msgs + beta*float64(k)
	r.stats.SendTime += dt
	start = r.clock
	r.emit(Segment{Kind: SegSend, Start: start, End: start + dt, Peer: dst, Words: k, Msgs: msgs})
	r.clock += dt
	m.arrival = r.clock
	r.sendCount++
	return m, start
}

// copyFate is one delivered copy's fate: its copy index and whether the
// plan corrupts it.
type copyFate struct {
	copy    uint8
	corrupt bool
}

// sendFate applies the fault plan to the k-word send priceSend just
// priced (m and start are its results), publishes the degraded-window and
// fate events, and returns the fates of the copies the network delivers,
// in order: the duplicate when the plan duplicates the message, then the
// primary unless the plan drops it (dropped). Without a plan the primary
// is the one copy. Send delivers each (payload); a conducted collective's
// receiver takes the first (comm_ff.go).
//
// The duplicate has a corruption fate of its own (keyed on the copy
// index), so a corrupt+dup send can deliver one clean and one corrupted
// copy. It also takes its own route: a drop loses only the primary, so
// drop+dup still delivers the duplicate — which is what lets the
// timer-free resilience protocols survive lossy links that duplicate
// traffic.
func (r *Rank) sendFate(dst, k int, m message, start float64) (fates [2]copyFate, n int, dropped bool) {
	seq, fp := r.sendCount-1, r.cluster.cost.Faults
	if fp == nil {
		return fates, 1, false // the zero fate: one clean primary copy
	}
	fault := func(ev FaultEvent) {
		if len(r.cluster.obs) > 0 {
			ev.Src, ev.Dst, ev.Seq, ev.Words = r.id, dst, seq, k
			r.emitFault(ev)
		}
	}
	if m.deg != nil {
		fault(FaultEvent{Kind: FaultDegraded, Time: start, AlphaFactor: m.deg.alphaF, BetaFactor: m.deg.betaF})
	}
	drop, dup, corrupt, dupCorrupt := fp.messageFate(r.id, dst, seq, r.clock)
	if corrupt && k > 0 {
		fault(FaultEvent{Kind: FaultCorrupt, Time: r.clock, Copy: copyPrimary})
	}
	if dup {
		fault(FaultEvent{Kind: FaultDup, Time: r.clock})
		if dupCorrupt && k > 0 {
			fault(FaultEvent{Kind: FaultCorrupt, Time: r.clock, Copy: copyDup})
		}
		fates[n] = copyFate{copy: copyDup, corrupt: dupCorrupt && k > 0}
		n++
	}
	if drop {
		fault(FaultEvent{Kind: FaultDrop, Time: r.clock})
		return fates, n, true // the sender has paid; the network loses the primary copy
	}
	fates[n] = copyFate{copy: copyPrimary, corrupt: corrupt && k > 0}
	return fates, n + 1, false
}

// payload is the data copy f of the rank's last send to dst carries: data
// itself when own surrenders it, else private(data); a corrupted copy is
// fresh, so corruption never writes into a caller's buffer or a phantom.
// Only the last of two copies may own data: the first is delivered, and
// may be written, before the second is built.
func (r *Rank) payload(dst int, data []float64, f copyFate, own bool) []float64 {
	if !f.corrupt {
		if own {
			return data
		}
		return private(data)
	}
	out := make([]float64, len(data))
	copy(out, data)
	out[r.cluster.cost.Faults.corruptIndex(r.id, dst, r.sendCount-1, int(f.copy), len(data))] += 1.0
	return out
}

// Recv receives the next message from rank src, parking until it arrives.
// The receiver's clock becomes max(own clock, sender's post-send clock).
func (r *Rank) Recv(src int) []float64 {
	for {
		if v, ok := r.tryRecv(src); ok {
			return v
		}
		r.park()
	}
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
		panic(exitedPeer(r.id, src, r.cluster.exits[src]))
	}
	return r.finishRecv(src, msg)
}

// exitedPeer is the text rank id fails with when the peer src it receives
// from has left the run as ei records, naming the root cause.
func exitedPeer(id, src int, ei exitInfo) string {
	switch ei.status {
	case exitClean:
		return fmt.Sprintf("sim: rank %d receiving from rank %d, which exited without sending (clean exit; mismatched communication pattern?)", id, src)
	case exitCrashed:
		return fmt.Sprintf("sim: rank %d receiving from rank %d, which crashed (root cause: %v)", id, src, ei.err)
	default:
		return fmt.Sprintf("sim: rank %d receiving from rank %d, which failed (cascade; root cause: %v)", id, src, ei.err)
	}
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
		if msg.deg != nil {
			alpha *= msg.deg.alphaF
			beta *= msg.deg.betaF
		}
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

// Result holds the outcome of a cluster run.
type Result struct {
	// PerRank has one Stats per rank, indexed by rank id.
	PerRank []Stats
	// ActivePairs is the number of directed rank pairs that were wired:
	// the pairs actually communicated over. It is a runtime-footprint
	// metric, not part of the simulated machine model.
	ActivePairs int
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

// MessageLostError is how rank Rank fails when the fault plan drops every
// copy of the message from Peer it was to receive inside collective Op.
type MessageLostError struct {
	Rank, Peer int
	Op         string
}

func (e *MessageLostError) Error() string {
	return fmt.Sprintf("sim: rank %d lost the message from rank %d inside %s (dropped by the fault plan)", e.Rank, e.Peer, e.Op)
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
