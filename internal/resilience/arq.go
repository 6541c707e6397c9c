package resilience

import (
	"fmt"
	"math"

	"perfscale/internal/sim"
)

// ARQ is the timer-aware second generation of the reliable endpoint: where
// Reliable can only mask faults that leave evidence (a damaged frame, a
// duplicate), ARQ also masks silent drops, because the virtual-time timeout
// primitives let it notice absence. On top of Reliable's frame grammar it
// adds
//
//   - retransmission on timeout: every ack wait is a RecvTimeout with a
//     deterministic RTO; expiry retransmits the outstanding frame and backs
//     the RTO off exponentially (with seeded, per-attempt jitter so
//     concurrent retransmitters do not share deadlines). A sender that
//     exhausts MaxAttempts completes optimistically — the copies already
//     on the in-order channel are re-acknowledged at the pair's next
//     contact — because blocking on an ack whose loss only the peer's
//     future attention can repair deadlocks stalled dependency chains;
//   - failure detection: an observed peer exit (RecvPeerExited or
//     SendPeerExited) converts immediately and accurately into a typed
//     *PeerFailure; DetectorMisses consecutive silent windows on a
//     receive convert a live-but-wedged peer into a suspected one. Ack
//     silence on the send side is deliberately NOT a failure signal;
//   - liveness probing: a receiver that misses a detector window sends a
//     PING; any well-formed frame from the peer — the PONG answer, data,
//     an ack, a BEAT from Heartbeat — resets the miss count.
//
// Retransmissions, probes and timeout waits all travel through the normal
// αt/βt/γe/βe accounting, so recovery is priced by Eq. 1/Eq. 2 like any
// other work, and every decision is a function of virtual state — two runs
// with the same seeds produce bit-identical stats and retransmit counts.
//
// Like Reliable, conversations must be pairwise nested (tree collectives
// are safe, rings are not), and both endpoints of a pair must speak ARQ.
type ARQ struct {
	r        *sim.Rank
	cfg      ARQConfig
	nextSend map[int]int
	nextRecv map[int]int
	pending  map[int][]pendingFrame
	stats    ARQStats
}

// ARQConfig tunes the retransmission and failure-detection timers. All
// durations are virtual seconds.
type ARQConfig struct {
	// RTO is the initial retransmission timeout of an ack wait. Must be
	// positive; ARQDefaults derives it from the cost model.
	RTO float64
	// Backoff multiplies the RTO after every consecutive expiry (default 2).
	Backoff float64
	// MaxRTO caps the backed-off RTO (default 64·RTO).
	MaxRTO float64
	// JitterFrac stretches each armed RTO by up to this fraction,
	// deterministically from (Seed, rank, peer, attempt), so concurrent
	// retransmitters do not collide on one deadline (default 1/8).
	JitterFrac float64
	// MaxAttempts is the per-transfer retransmission budget (default 8).
	// A sender that exhausts it completes the transfer optimistically
	// instead of declaring the peer dead: ack silence is not evidence of
	// failure — a live peer whose ack was dropped re-acknowledges the
	// duplicates only at the pair's next contact, which can sit an entire
	// stalled dependency chain away; blocking for it deadlocks the chain.
	// The budget bounds the residual risk instead: a transfer is truly
	// lost only if all MaxAttempts+1 independently-rolled copies drop.
	MaxAttempts int
	// DetectorInterval is the receive-side heartbeat window: a blocked
	// Recv that sees nothing for this long counts a miss and sends a PING
	// (default 512·RTO). Successive windows back off by Backoff, so the
	// total silence budget before a failure verdict is
	// (Backoff^DetectorMisses − 1)·DetectorInterval — it must exceed any
	// legitimate stall, and virtual clocks skew: a rank blocked on a peer
	// that is itself stalled behind a slow conversation elsewhere sees
	// real silence without a real failure. The default also clears the
	// sender's whole retransmission budget (≈ 191·RTO at the defaults)
	// with room for jitter and skew, so drop-recovery episodes resolve
	// without every blocked rank's detector burning a quiescence round
	// first — the detector is a last-resort wedge alarm, not a pacer.
	DetectorInterval float64
	// DetectorMisses is the number of consecutive silent windows after
	// which the receiver declares the peer failed (default 8, a ~255×
	// DetectorInterval budget at the default backoff).
	DetectorMisses int
	// MaxPending bounds the early-data buffer per peer (default
	// DefaultMaxPending); overflowing it returns a *PendingOverflowError.
	MaxPending int
	// Seed keys the retransmission jitter.
	Seed uint64
}

// withDefaults fills the zero fields.
func (c ARQConfig) withDefaults() ARQConfig {
	if c.Backoff < 1 {
		c.Backoff = 2
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 64 * c.RTO
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	} else if c.JitterFrac == 0 {
		c.JitterFrac = 0.125
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.DetectorInterval <= 0 {
		c.DetectorInterval = 512 * c.RTO
	}
	if c.DetectorMisses <= 0 {
		c.DetectorMisses = 8
	}
	if c.MaxPending <= 0 {
		c.MaxPending = DefaultMaxPending
	}
	return c
}

// ARQDefaults builds a config whose RTO covers one round trip of a
// words-sized frame under the given cost model with a 4× safety margin —
// tight enough that a genuine drop is noticed within a few frame times,
// loose enough that an in-flight ack always beats the timer.
func ARQDefaults(cost sim.Cost, words int) ARQConfig {
	rto := 4 * (cost.AlphaT + cost.BetaT*float64(words))
	if rto <= 0 {
		// Zero-cost models have no virtual timescale; any positive RTO
		// works because timers only fire at quiescence.
		rto = 1
	}
	return ARQConfig{RTO: rto}.withDefaults()
}

// NewARQ wraps a rank with the timer-aware reliable protocol.
func NewARQ(r *sim.Rank, cfg ARQConfig) *ARQ {
	cfg = cfg.withDefaults()
	if cfg.RTO <= 0 {
		panic(fmt.Sprintf("resilience: ARQConfig.RTO must be positive, got %g (use ARQDefaults)", cfg.RTO))
	}
	return &ARQ{
		r:        r,
		cfg:      cfg,
		nextSend: map[int]int{},
		nextRecv: map[int]int{},
		pending:  map[int][]pendingFrame{},
	}
}

// ARQStats counts one endpoint's protocol events; all increments are
// deterministic, so two runs with the same seeds report identical values.
type ARQStats struct {
	// Retransmits counts DATA frames re-sent (on RTO expiry or nack).
	Retransmits int
	// Timeouts counts RTO expiries in ack waits.
	Timeouts int
	// Misses counts silent detector windows in receives.
	Misses int
	// ProbesSent counts PINGs emitted after detector misses.
	ProbesSent int
	// ProbesAnswered counts PONGs sent in reply to a peer's PING.
	ProbesAnswered int
	// DupsAbsorbed counts duplicate DATA frames recognized and re-acked.
	DupsAbsorbed int
	// OptimisticSends counts transfers completed after exhausting the
	// retransmission budget without an ack (reconciled at next contact).
	OptimisticSends int
	// BeatsSent counts Heartbeat frames emitted.
	BeatsSent int
}

// Add accumulates o into s (for aggregating per-rank reports).
func (s *ARQStats) Add(o ARQStats) {
	s.Retransmits += o.Retransmits
	s.Timeouts += o.Timeouts
	s.Misses += o.Misses
	s.ProbesSent += o.ProbesSent
	s.ProbesAnswered += o.ProbesAnswered
	s.DupsAbsorbed += o.DupsAbsorbed
	s.OptimisticSends += o.OptimisticSends
	s.BeatsSent += o.BeatsSent
}

// Stats returns the endpoint's counters.
func (a *ARQ) Stats() ARQStats { return a.stats }

// PeerFailure is the typed verdict of the failure detector: the peer this
// endpoint was talking to is gone. Exited failures are accurate (the
// runtime observed the peer's exit); the rest are suspicions earned by
// Misses consecutive silent timeout windows.
type PeerFailure struct {
	// Rank is the detecting endpoint, Peer the rank it gave up on.
	Rank, Peer int
	// Exited reports an observed exit; Clean and Cause qualify it.
	Exited bool
	Clean  bool
	Cause  error
	// Misses counts the silent windows behind a suspicion (0 when Exited).
	Misses int
	// At is the detection time in virtual seconds.
	At float64
}

// Error implements error.
func (e *PeerFailure) Error() string {
	switch {
	case e.Exited && e.Clean:
		return fmt.Sprintf("resilience: rank %d: peer %d exited cleanly mid-conversation (t=%g)", e.Rank, e.Peer, e.At)
	case e.Exited:
		return fmt.Sprintf("resilience: rank %d: peer %d died mid-conversation (t=%g): %v", e.Rank, e.Peer, e.At, e.Cause)
	default:
		return fmt.Sprintf("resilience: rank %d: peer %d suspected dead after %d silent timeout windows (t=%g)", e.Rank, e.Peer, e.Misses, e.At)
	}
}

// Unwrap exposes the peer's exit error to errors.Is/As chains.
func (e *PeerFailure) Unwrap() error { return e.Cause }

// mix64 is the splitmix64 finalizer (public domain), the same generator the
// fault plan uses; the jitter must not consume the plan's random stream.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// jittered stretches rto by up to JitterFrac, deterministically per
// (seed, rank, peer, attempt).
func (a *ARQ) jittered(rto float64, peer, attempt int) float64 {
	if a.cfg.JitterFrac <= 0 {
		return rto
	}
	h := mix64(a.cfg.Seed ^ uint64(a.r.ID())<<42 ^ uint64(peer)<<21 ^ uint64(attempt))
	u := float64(h>>11) / (1 << 53)
	return rto * (1 + a.cfg.JitterFrac*u)
}

// backoff advances the RTO one exponential step.
func (a *ARQ) backoff(rto float64) float64 {
	return math.Min(rto*a.cfg.Backoff, a.cfg.MaxRTO)
}

// peerExited converts an observed peer exit into an accurate PeerFailure.
func (a *ARQ) peerExited(peer int) error {
	_, clean, cause := a.r.PeerExit(peer)
	return &PeerFailure{Rank: a.r.ID(), Peer: peer, Exited: true, Clean: clean, Cause: cause, At: a.r.Clock()}
}

// xmit emits one frame with a bounded send, so a buffer that stays full
// past the retransmit budget — or a peer that exits while we wait for
// space — becomes a PeerFailure instead of a deadlock abort. The fast path
// (buffer has room) costs exactly what a raw Send costs.
func (a *ARQ) xmit(dst int, frame []float64) error {
	rto := a.cfg.RTO
	for attempt := 0; ; attempt++ {
		switch a.r.SendTimeout(dst, frame, a.jittered(rto, dst, attempt)) {
		case sim.SendOK:
			return nil
		case sim.SendPeerExited:
			return a.peerExited(dst)
		default: // buffer full for a whole window
			if attempt+1 >= a.cfg.MaxAttempts {
				return &PeerFailure{Rank: a.r.ID(), Peer: dst, Misses: attempt + 1, At: a.r.Clock()}
			}
			rto = a.backoff(rto)
		}
	}
}

// Send delivers data to dst, retransmitting on RTO expiry until the
// receiver acknowledges an uncorrupted copy or the failure detector gives
// the peer up.
func (a *ARQ) Send(dst int, data []float64) error {
	seq := a.nextSend[dst]
	a.nextSend[dst]++
	frame := dataFrame(seq, data)
	if err := a.xmit(dst, frame); err != nil {
		return err
	}
	attempt := 0
	rto := a.cfg.RTO
	for {
		f, out := a.r.RecvTimeout(dst, a.jittered(rto, dst, attempt))
		switch out {
		case sim.RecvPeerExited:
			// The dropped-final-ack case: a peer only exits cleanly after
			// consuming and acknowledging everything it owed, so a clean
			// exit during our ack wait means the ack was lost in flight —
			// an implicit acknowledgement. An unclean exit is a failure.
			if _, clean, _ := a.r.PeerExit(dst); clean {
				return nil
			}
			return a.peerExited(dst)
		case sim.RecvTimedOut:
			a.stats.Timeouts++
			attempt++
			if attempt >= a.cfg.MaxAttempts {
				// Optimistic completion, the break for the dropped-ack
				// knowledge deadlock: MaxAttempts+1 copies sit on the
				// in-order channel, so the peer re-acknowledges at the
				// pair's next contact and the stale-ack absorption below
				// reconciles then. Blocking here instead can deadlock:
				// the peer attends this pair next only after progress
				// that may transitively require our own next send.
				a.stats.OptimisticSends++
				return nil
			}
			a.stats.Retransmits++
			if err := a.xmit(dst, frame); err != nil {
				return err
			}
			rto = a.backoff(rto)
			continue
		}
		// Any frame proves the peer alive: the failure budget counts
		// consecutive silent windows, so reception resets it.
		attempt, rto = 0, a.cfg.RTO
		switch classify(f) {
		case frameAck:
			ackSeq, flag := int(f[1]), int(f[2])
			switch {
			case ackSeq == seq && flag == ackOK:
				return nil
			case ackSeq < seq:
				// Stale ack from an earlier exchange: absorb it.
			default:
				// Negative or crossed ack: retransmit (receiver dedups).
				a.stats.Retransmits++
				if err := a.xmit(dst, frame); err != nil {
					return err
				}
			}
		case frameData:
			// The peer moved on to its own transfer before our ack wait
			// ended; park it for a later Recv.
			if err := a.acceptData(dst, f); err != nil {
				return err
			}
		case framePing:
			a.stats.ProbesAnswered++
			if err := a.xmit(dst, ctlFrame(kindPong, int(f[1]))); err != nil {
				return err
			}
		case framePong, frameBeat:
			// Liveness only; the reset above already consumed it.
		default:
			// Damaged beyond classification: cover both possibilities,
			// like Reliable does.
			a.stats.Retransmits++
			if err := a.xmit(dst, frame); err != nil {
				return err
			}
			if err := a.xmit(dst, ackFrame(a.nextRecv[dst], ackBad)); err != nil {
				return err
			}
		}
	}
}

// acceptData is Reliable.acceptData with the error-returning contract and
// the configured pending bound.
func (a *ARQ) acceptData(peer int, f []float64) error {
	seq := int(f[1])
	switch expected := a.nextRecv[peer]; {
	case seq < expected:
		a.stats.DupsAbsorbed++
		return a.xmit(peer, ackFrame(seq, ackOK))
	case seq == expected:
		if len(a.pending[peer]) >= a.cfg.MaxPending {
			return &PendingOverflowError{Rank: a.r.ID(), Peer: peer, Limit: a.cfg.MaxPending}
		}
		payload := make([]float64, len(f)-3)
		copy(payload, f[3:])
		a.pending[peer] = append(a.pending[peer], pendingFrame{seq: seq, data: payload})
		a.nextRecv[peer] = expected + 1
		return nil
	default:
		return fmt.Errorf("resilience: arq rank %d expected seq <= %d from rank %d, got %d (endpoint not using ARQ?)",
			a.r.ID(), expected, peer, seq)
	}
}

// Recv returns the next in-order uncorrupted payload from src, running the
// heartbeat failure detector while it waits: every DetectorInterval of
// silence counts a miss and sends a PING; DetectorMisses consecutive
// misses, or an observed exit, convert src into a *PeerFailure.
func (a *ARQ) Recv(src int) ([]float64, error) {
	if q := a.pending[src]; len(q) > 0 {
		a.pending[src] = q[1:]
		if err := a.xmit(src, ackFrame(q[0].seq, ackOK)); err != nil {
			return nil, err
		}
		return q[0].data, nil
	}
	misses := 0
	window := a.cfg.DetectorInterval
	for {
		f, out := a.r.RecvTimeout(src, window)
		switch out {
		case sim.RecvPeerExited:
			return nil, a.peerExited(src)
		case sim.RecvTimedOut:
			misses++
			a.stats.Misses++
			if misses >= a.cfg.DetectorMisses {
				return nil, &PeerFailure{Rank: a.r.ID(), Peer: src, Misses: misses, At: a.r.Clock()}
			}
			// Probe: a peer parked in an ack wait (or its own detector)
			// answers PONG even though it has no data for us. The window
			// backs off like the RTO, both to widen the silence budget
			// past any virtual-clock skew and to stop a lagging rank's
			// detector from hogging the earliest-deadline slot that the
			// genuinely needed retransmit timer is waiting for.
			window *= a.cfg.Backoff
			a.stats.ProbesSent++
			if err := a.xmit(src, ctlFrame(kindPing, misses)); err != nil {
				return nil, err
			}
			continue
		}
		misses = 0
		window = a.cfg.DetectorInterval
		switch classify(f) {
		case frameData:
			seq := int(f[1])
			expected := a.nextRecv[src]
			switch {
			case seq == expected:
				a.nextRecv[src] = expected + 1
				if err := a.xmit(src, ackFrame(seq, ackOK)); err != nil {
					return nil, err
				}
				out := make([]float64, len(f)-3)
				copy(out, f[3:])
				return out, nil
			case seq < expected:
				a.stats.DupsAbsorbed++
				if err := a.xmit(src, ackFrame(seq, ackOK)); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("resilience: arq rank %d expected seq %d from rank %d, got %d (endpoint not using ARQ?)",
					a.r.ID(), expected, src, seq)
			}
		case frameAck:
			// A stale or crossed ack from a concluded exchange: absorb.
		case framePing:
			a.stats.ProbesAnswered++
			if err := a.xmit(src, ctlFrame(kindPong, int(f[1]))); err != nil {
				return nil, err
			}
		case framePong, frameBeat:
			// Liveness only; misses already reset.
		default:
			if err := a.xmit(src, ackFrame(a.nextRecv[src], ackBad)); err != nil {
				return nil, err
			}
		}
	}
}

// Heartbeat sends one BEAT frame to dst without expecting a reply. A rank
// entering a compute phase longer than the peer's detector budget beats
// first, so the peer's Recv keeps resetting its miss count instead of
// declaring a false failure.
func (a *ARQ) Heartbeat(dst int) error {
	a.stats.BeatsSent++
	return a.xmit(dst, ctlFrame(kindBeat, 0))
}

// Bcast broadcasts root's data to every member over a binomial tree of
// pairwise ARQ transfers. members lists the participating ranks (all of
// which must call Bcast with identical members and root, in the same
// program position); root must be a member. Non-roots pass nil and receive
// the payload; the root's slice is returned as-is.
//
// The tree keeps every conversation pairwise nested — parent-to-child
// transfers complete before the child forwards — which is the structure
// that makes ARQ (and its retransmissions) deadlock-free under drops.
func (a *ARQ) Bcast(members []int, root int, data []float64) ([]float64, error) {
	n := len(members)
	me, rootIdx := -1, -1
	for i, m := range members {
		if m == a.r.ID() {
			me = i
		}
		if m == root {
			rootIdx = i
		}
	}
	if me < 0 || rootIdx < 0 {
		return nil, fmt.Errorf("resilience: arq bcast: rank %d or root %d not in members %v", a.r.ID(), root, members)
	}
	rel := (me - rootIdx + n) % n
	buf := data
	if rel != 0 {
		parent := rel &^ (rel & -rel)
		var err error
		buf, err = a.Recv(members[(parent+rootIdx)%n])
		if err != nil {
			return nil, err
		}
	}
	low := rel & -rel
	if rel == 0 {
		low = 1
		for low < n {
			low <<= 1
		}
	}
	for bit := low >> 1; bit > 0; bit >>= 1 {
		if child := rel | bit; child != rel && child < n {
			if err := a.Send(members[(child+rootIdx)%n], buf); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}
