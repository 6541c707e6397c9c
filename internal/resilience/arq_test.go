package resilience_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// testCost gives runs a virtual clock.
func testCost() sim.Cost {
	return sim.Cost{GammaT: 1e-9, BetaT: 1e-8, AlphaT: 1e-6}
}

// evidenceOnly is the infinite-RTO configuration ABFT25D and
// RunCheckpointed run: retransmission on a damaged frame or a nack only.
var evidenceOnly = resilience.ARQConfig{RTO: math.Inf(1)}

func TestARQDeliversInOrder(t *testing.T) {
	const msgs = 10
	cfg := resilience.ARQDefaults(testCost(), 2)
	var senderStats resilience.ARQStats
	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, cfg)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := arq.Send(1, []float64{float64(i), float64(2 * i)}); err != nil {
					return err
				}
			}
			senderStats = arq.Stats()
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := arq.Recv(0)
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != float64(i) || got[1] != float64(2*i) {
				t.Errorf("message %d mangled: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderStats.Retransmits != 0 || senderStats.Timeouts != 0 {
		t.Errorf("fault-free run paid protocol overhead: %+v", senderStats)
	}
}

// TestARQMasksSilentDrops is the capability an evidence-only endpoint
// lacks: silently dropped frames — in both the data and the ack direction —
// are recovered by timeout-driven retransmission instead of hanging until a
// deadlock verdict aborts the run.
func TestARQMasksSilentDrops(t *testing.T) {
	const msgs = 12
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  21,
		Links: []sim.LinkFault{{Src: -1, Dst: -1, DropProb: 0.25}},
	}
	cfg := resilience.ARQDefaults(cost, 2)
	var senderStats resilience.ARQStats
	_, err := sim.Run(2, cost, func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, cfg)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := arq.Send(1, []float64{float64(i), 100 + float64(i)}); err != nil {
					return err
				}
			}
			senderStats = arq.Stats()
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := arq.Recv(0)
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != float64(i) || got[1] != 100+float64(i) {
				t.Errorf("message %d mangled: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderStats.Retransmits == 0 {
		t.Error("drop plan injected no retransmissions; the test exercises nothing")
	}
}

// TestARQPeerFailureExited checks accurate detection: a peer that dies is
// reported as an Exited PeerFailure carrying the peer's own error, not as
// a suspicion and not as a deadlock abort.
func TestARQPeerFailureExited(t *testing.T) {
	boom := errors.New("boom")
	cfg := resilience.ARQDefaults(testCost(), 1)
	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		if r.ID() == 1 {
			return boom
		}
		arq := resilience.NewARQ(r, cfg)
		if err := arq.Send(1, []float64{42}); err != nil {
			return err
		}
		return errors.New("send to a dead peer succeeded")
	})
	var pf *resilience.PeerFailure
	if !errors.As(err, &pf) {
		t.Fatalf("want *PeerFailure in %v", err)
	}
	if !pf.Exited || pf.Clean {
		t.Errorf("want accurate unclean exit detection, got %+v", pf)
	}
	if !errors.Is(err, boom) {
		t.Errorf("PeerFailure should carry the peer's cause; got %v", err)
	}
}

// TestARQPeerFailureSuspected checks timeout-based detection: a peer that
// stays alive but silent past the detector budget becomes a suspected
// PeerFailure after exactly DetectorMisses silent windows.
func TestARQPeerFailureSuspected(t *testing.T) {
	cfg := resilience.ARQDefaults(testCost(), 1)
	cfg.DetectorMisses = 2
	pings := 0
	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		if r.ID() == 1 {
			// Alive but unresponsive: consume whatever arrives (the
			// detector's pings) without ever answering.
			for {
				_, out := r.RecvTimeout(0, 1e9)
				if out != sim.RecvOK {
					return nil
				}
				pings++
			}
		}
		arq := resilience.NewARQ(r, cfg)
		_, err := arq.Recv(1)
		return err
	})
	var pf *resilience.PeerFailure
	if !errors.As(err, &pf) {
		t.Fatalf("want *PeerFailure in %v", err)
	}
	if pf.Exited || pf.Misses != cfg.DetectorMisses {
		t.Errorf("want suspicion after %d misses, got %+v", cfg.DetectorMisses, pf)
	}
	if pings == 0 {
		t.Error("detector declared failure without probing first")
	}
}

// TestARQHeartbeatCoversLongCompute: without beats, a compute phase longer
// than the detector budget is a false positive; with beats, the same phase
// passes. Both outcomes are decided purely by virtual stamps.
func TestARQHeartbeatCoversLongCompute(t *testing.T) {
	base := testCost()
	cfg := resilience.ARQDefaults(base, 1)
	cfg.RTO = 0.25
	cfg.Backoff = 1 // constant windows: the silence budget is exactly 3·2 = 6 s
	cfg.DetectorInterval = 2
	cfg.DetectorMisses = 3

	run := func(beats bool) error {
		_, err := sim.Run(2, base, func(r *sim.Rank) error {
			arq := resilience.NewARQ(r, cfg)
			if r.ID() == 1 {
				for i := 0; i < 5; i++ {
					if beats {
						if err := arq.Heartbeat(0); err != nil {
							return err
						}
					}
					r.Compute(3e9) // 3 virtual seconds at γt = 1e-9
				}
				return arq.Send(0, []float64{7})
			}
			got, err := arq.Recv(1)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != 7 {
				t.Errorf("payload mangled: %v", got)
			}
			return nil
		})
		return err
	}

	var pf *resilience.PeerFailure
	if err := run(false); !errors.As(err, &pf) {
		t.Errorf("15s of silence against a 6s budget should be a PeerFailure, got %v", err)
	}
	if err := run(true); err != nil {
		t.Errorf("heartbeats every 3s against a 6s budget should pass, got %v", err)
	}
}

// TestARQPendingOverflow checks the ARQ endpoint enforces the same bound
// through its error-returning contract.
func TestARQPendingOverflow(t *testing.T) {
	cfg := resilience.ARQDefaults(testCost(), 1)
	cfg.MaxPending = 8
	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		if r.ID() == 1 {
			for i := 0; i < cfg.MaxPending+1; i++ {
				r.Send(0, resilience.DataFrame(i, []float64{float64(i)}))
			}
			return nil
		}
		arq := resilience.NewARQ(r, cfg)
		return arq.Send(1, []float64{1})
	})
	var poe *resilience.PendingOverflowError
	if !errors.As(err, &poe) {
		t.Fatalf("want *PendingOverflowError in %v", err)
	}
	if poe.Limit != cfg.MaxPending {
		t.Errorf("want configured limit %d, got %+v", cfg.MaxPending, poe)
	}
}

func TestARQBcastTree(t *testing.T) {
	const p = 8
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	payload := []float64{3, 1, 4, 1, 5}
	cfg := resilience.ARQDefaults(testCost(), len(payload))
	_, err := sim.Run(p, testCost(), func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, cfg)
		got, err := arq.Bcast(members, 3, dataIfTest(r.ID() == 3, payload))
		if err != nil {
			return err
		}
		for i, v := range payload {
			if got[i] != v {
				t.Errorf("rank %d word %d: got %g want %g", r.ID(), i, got[i], v)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func dataIfTest(cond bool, data []float64) []float64 {
	if cond {
		return data
	}
	return nil
}

// TestARQPendingOverflowFromARQPeer drives the pending bound through honest
// two-sided protocol traffic (TestARQPendingOverflow above forges raw
// frames): rank 0 parks in an ack wait whose RTO is effectively infinite
// while rank 1 pushes three genuine ARQ transfers at it. With MaxPending=2
// the third in-order frame must surface *PendingOverflowError out of rank
// 0's own Send, attributed to the overflowing endpoint.
func TestARQPendingOverflowFromARQPeer(t *testing.T) {
	slowCfg := resilience.ARQDefaults(testCost(), 2)
	slowCfg.RTO = 10 // virtual seconds: parks rank 0 for the whole run
	slowCfg.MaxPending = 2
	fastCfg := resilience.ARQDefaults(testCost(), 2)
	fastCfg.MaxAttempts = 3

	_, err := sim.Run(2, testCost(), func(r *sim.Rank) error {
		if r.ID() == 0 {
			arq := resilience.NewARQ(r, slowCfg)
			// Never acked (the peer only sends), so this sits in the ack
			// wait accepting the peer's early data until the bound trips.
			return arq.Send(1, []float64{1})
		}
		arq := resilience.NewARQ(r, fastCfg)
		for i := 0; i < slowCfg.MaxPending+1; i++ {
			// The first copies park unacknowledged; retransmits of parked
			// frames are dup-acked, and the final transfer completes
			// optimistically — either way the sender's exit stays clean,
			// so the only error in the run is the receiver's overflow.
			if err := arq.Send(0, []float64{float64(i)}); err != nil {
				return nil
			}
		}
		return nil
	})
	var poe *resilience.PendingOverflowError
	if !errors.As(err, &poe) {
		t.Fatalf("want *PendingOverflowError in %v", err)
	}
	if poe.Rank != 0 || poe.Peer != 1 || poe.Limit != slowCfg.MaxPending {
		t.Errorf("overflow misattributed: %+v", poe)
	}
}

// TestARQOptimisticCompletionAtMaxAttempts exercises the MaxAttempts
// boundary on a one-way blackhole link (every copy rank 0 sends toward
// rank 1 drops, the reverse direction is clean). The sender must exhaust
// exactly its budget — MaxAttempts timeouts, MaxAttempts-1 retransmits —
// and then complete optimistically rather than deadlock; the residual risk
// lands on the receiver, whose Recv converts the sender's clean exit into
// a typed *PeerFailure with Exited && Clean set.
func TestARQOptimisticCompletionAtMaxAttempts(t *testing.T) {
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  7,
		Links: []sim.LinkFault{{Src: 0, Dst: 1, DropProb: 1}},
	}
	cfg := resilience.ARQDefaults(cost, 1)
	cfg.MaxAttempts = 3

	var senderStats resilience.ARQStats
	var recvErr error
	_, err := sim.Run(2, cost, func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, cfg)
		if r.ID() == 0 {
			if err := arq.Send(1, []float64{42}); err != nil {
				return err
			}
			senderStats = arq.Stats()
			return nil
		}
		_, recvErr = arq.Recv(0)
		return nil
	})
	if err != nil {
		t.Fatalf("run must complete (that is the point of optimistic completion): %v", err)
	}
	if senderStats.OptimisticSends != 1 {
		t.Errorf("OptimisticSends = %d, want 1", senderStats.OptimisticSends)
	}
	if senderStats.Timeouts != cfg.MaxAttempts {
		t.Errorf("Timeouts = %d, want the full budget %d", senderStats.Timeouts, cfg.MaxAttempts)
	}
	if senderStats.Retransmits != cfg.MaxAttempts-1 {
		t.Errorf("Retransmits = %d, want %d (no retransmit after the final timeout)",
			senderStats.Retransmits, cfg.MaxAttempts-1)
	}
	var pf *resilience.PeerFailure
	if !errors.As(recvErr, &pf) {
		t.Fatalf("receiver error = %v, want *PeerFailure", recvErr)
	}
	if !pf.Exited || !pf.Clean {
		t.Errorf("residual-risk verdict = %+v, want Exited && Clean (sender finished optimistically)", pf)
	}
}

// TestARQRecoversJustBeforeMaxAttempts is the contrast case one step inside
// the boundary: the drop window covers only the first copy, the first
// retransmit lands, and the transfer completes normally — one timeout, one
// retransmit, no optimistic completion, payload intact at the receiver.
func TestARQRecoversJustBeforeMaxAttempts(t *testing.T) {
	cost := testCost()
	cfg := resilience.ARQDefaults(cost, 2)
	cfg.MaxAttempts = 3
	// The first data copy leaves within half an RTO of the clock origin
	// and drops; the retransmit fires a full (jittered) RTO later, outside
	// the window, and delivers.
	cost.Faults = &sim.FaultPlan{
		Seed:  7,
		Links: []sim.LinkFault{{Src: 0, Dst: 1, From: 0, Until: 0.5 * cfg.RTO, DropProb: 1}},
	}

	var senderStats resilience.ARQStats
	var got []float64
	_, err := sim.Run(2, cost, func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, cfg)
		if r.ID() == 0 {
			if err := arq.Send(1, []float64{3, 9}); err != nil {
				return err
			}
			senderStats = arq.Stats()
			return nil
		}
		var err error
		got, err = arq.Recv(0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Errorf("payload after masked drop = %v, want [3 9]", got)
	}
	if senderStats.Timeouts != 1 || senderStats.Retransmits != 1 || senderStats.OptimisticSends != 0 {
		t.Errorf("stats = %+v, want exactly one timeout, one retransmit, no optimistic completion", senderStats)
	}
}

// exchange runs msgs transfers from rank 0 to rank 1 over evidence-only
// endpoints; payload(i) is message i. The receiver checks order and
// content; the run's result is returned for counter checks.
func exchange(t *testing.T, cost sim.Cost, msgs int, payload func(i int) []float64) *sim.Result {
	t.Helper()
	res, err := sim.Run(2, cost, func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, evidenceOnly)
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := arq.Send(1, payload(i)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got, err := arq.Recv(0)
			if err != nil {
				return err
			}
			if want := payload(i); !slices.Equal(got, want) {
				t.Errorf("message %d = %v, want %v", i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestARQEvidenceOnlyDeliversInOrder(t *testing.T) {
	exchange(t, testCost(), 10, func(i int) []float64 { return []float64{float64(i), float64(2 * i)} })
}

func TestARQEvidenceOnlyMasksCorruption(t *testing.T) {
	const msgs = 20
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  11,
		Links: []sim.LinkFault{{Src: 0, Dst: 1, CorruptProb: 0.5}},
	}
	res := exchange(t, cost, msgs, func(i int) []float64 { return []float64{float64(i), 100 + float64(i)} })
	// Retransmissions must show up in the counters: strictly more sender
	// messages than the msgs data packets it would send on a clean link.
	if got := res.PerRank[0].MsgsSent; got <= msgs {
		t.Errorf("expected retransmissions beyond %d packets, counted %g", msgs, got)
	}
}

func TestARQEvidenceOnlyMasksDuplication(t *testing.T) {
	cost := testCost()
	cost.Faults = &sim.FaultPlan{
		Seed:  3,
		Links: []sim.LinkFault{{Src: -1, Dst: -1, DupProb: 1}},
	}
	exchange(t, cost, 5, func(i int) []float64 { return []float64{float64(i)} })
}

func TestARQEvidenceOnlyCorruptionIsDeterministic(t *testing.T) {
	run := func() sim.Stats {
		cost := testCost()
		cost.Faults = &sim.FaultPlan{
			Seed:  42,
			Links: []sim.LinkFault{{Src: 0, Dst: 1, CorruptProb: 0.5, DupProb: 0.25}},
		}
		return exchange(t, cost, 10, func(i int) []float64 { return []float64{float64(i), float64(i * i)} }).PerRank[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("retry traffic must be byte-identical across runs:\n%+v\n%+v", a, b)
	}
}

// TestARQEvidenceOnlyDropIsDeadlock: with an infinite RTO nothing notices
// silence, so a dropped frame ends the run in a typed deadlock verdict —
// never in a fired timer or an infinite clock.
func TestARQEvidenceOnlyDropIsDeadlock(t *testing.T) {
	cost := testCost()
	cost.Faults = &sim.FaultPlan{Seed: 1, Links: []sim.LinkFault{{Src: 0, Dst: 1, DropProb: 1}}}
	res, err := sim.Run(2, cost, func(r *sim.Rank) error {
		arq := resilience.NewARQ(r, evidenceOnly)
		if r.ID() == 0 {
			return arq.Send(1, []float64{1})
		}
		_, err := arq.Recv(0)
		return err
	})
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want a DeadlockError, got %v", err)
	}
	if T := res.Time(); math.IsInf(T, 0) {
		t.Errorf("clock ran to %g", T)
	}
}
