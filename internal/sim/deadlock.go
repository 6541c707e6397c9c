package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Deadlock diagnostics.
//
// A rank waits in exactly four places: a Recv on an empty pair, a Send on a
// full one, and their timed variants (timer.go). Each parks the rank in the
// engine with a wait record (op, peer), so the engine knows the instant the
// cluster is quiescent: nothing running, nothing runnable, some rank still
// live. No message can ever arrive then (the simulation has no external
// inputs), and eventEngine.quiesce resolves it: ranks waiting on an exited
// peer are released first; a plain send to an exited peer whose buffer
// stayed full is aborted per rank (timed sends handle peer exit
// themselves); if any parked rank holds an armed timer the run is retrying,
// not dead, and the single earliest deadline fires; only with zero armed
// timers is the run deadlocked, and each blocked rank is aborted with a
// DeadlockError naming who waits on whom.

// Wait-record ops (evRank.op).
const (
	opRunning uint64 = iota
	opBlockedRecv
	opBlockedSend
	opExited
	opBlockedRecvTimer
	opBlockedSendTimer
)

// blockedOp reports whether op is any of the four blocked states.
func blockedOp(op uint64) bool {
	switch op {
	case opBlockedRecv, opBlockedSend, opBlockedRecvTimer, opBlockedSendTimer:
		return true
	}
	return false
}

// DeadlockError is the diagnostic a rank aborted at quiescence reports.
type DeadlockError struct {
	// Rank is the aborted rank; Op is "recv" or "send"; Peer is the rank
	// it was blocked on.
	Rank int
	Op   string
	Peer int
	// PeerExited marks the send-to-exited-rank case: the peer can never
	// drain the pair's queue again.
	PeerExited bool
	// Graph is the cluster-wide wait-for description at detection time
	// (empty for the per-rank send-to-exited case).
	Graph string
	// Snapshot is the cluster-wide state at detection time — what every
	// rank was doing and which wired pairs still held undelivered
	// messages — so the deadlock is debuggable without rerunning under
	// trace. All ranks aborted by one detection share one snapshot.
	Snapshot *ClusterSnapshot
}

// ClusterSnapshot captures the whole cluster at a deadlock detection.
type ClusterSnapshot struct {
	// Ranks has one entry per rank, indexed by rank id.
	Ranks []RankSnapshot
	// Queued lists the wired pairs holding sent-but-undelivered messages,
	// sorted by (src, dst). A blocked receiver whose pair is absent here
	// has genuinely never been sent the message it waits for.
	Queued []QueuedPair
}

// RankSnapshot is one rank's state inside a ClusterSnapshot.
type RankSnapshot struct {
	Rank int
	// State is "running", "blocked-recv", "blocked-send",
	// "blocked-recv-timer", "blocked-send-timer" or "exited".
	State string
	// Peer is the rank waited on; -1 unless blocked.
	Peer int
	// LastSeg is a blocked rank's most recent timeline segment (nil when it
	// never emitted one, or is not blocked). It names the last thing the
	// rank did.
	LastSeg *Segment
}

// QueuedPair counts undelivered messages buffered on one wired pair.
type QueuedPair struct {
	Src, Dst int
	Count    int
}

// String renders the snapshot compactly, one line per non-idle fact.
func (s *ClusterSnapshot) String() string {
	var b strings.Builder
	b.WriteString("cluster snapshot:")
	for _, r := range s.Ranks {
		if r.State == "running" {
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d: %s", r.Rank, r.State)
		if r.Peer >= 0 {
			fmt.Fprintf(&b, " peer=%d", r.Peer)
		}
		if r.LastSeg != nil {
			fmt.Fprintf(&b, " last=%s[%g,%g]", r.LastSeg.Kind, r.LastSeg.Start, r.LastSeg.End)
		}
	}
	for _, q := range s.Queued {
		fmt.Fprintf(&b, "\n  queued %d->%d: %d msg(s)", q.Src, q.Dst, q.Count)
	}
	return b.String()
}

// queuedPairs counts undelivered messages per wired pair, sorted for
// deterministic reports.
func (c *Cluster) queuedPairs() []QueuedPair {
	var out []QueuedPair
	for dst := range c.mail {
		mb := &c.mail[dst]
		mb.mu.Lock()
		for src, q := range mb.queues {
			if n := q.length(); n > 0 {
				out = append(out, QueuedPair{Src: src, Dst: dst, Count: n})
			}
		}
		mb.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

func (e *DeadlockError) Error() string {
	if e.PeerExited {
		return fmt.Sprintf("sim: rank %d blocked in send to exited rank %d, which can no longer receive", e.Rank, e.Peer)
	}
	msg := fmt.Sprintf("sim: deadlock: rank %d blocked in %s waiting on rank %d", e.Rank, e.Op, e.Peer)
	if e.Graph != "" {
		msg += " (" + e.Graph + ")"
	}
	return msg
}

// abortPanic carries a deadlock abort out of the parked operation; the
// rank's carrier recovers it and reports the DeadlockError.
type abortPanic struct{ err *DeadlockError }

func opName(op uint64) string {
	if op == opBlockedSend || op == opBlockedSendTimer {
		return "send"
	}
	return "recv"
}

// waitGraph renders the wait-for relation of the blocked ranks, e.g.
// "rank 3 waiting on rank 5, rank 5 waiting on rank 3".
func waitGraph(ranks []evRank) string {
	var b strings.Builder
	for id := range ranks {
		rk := &ranks[id]
		if !blockedOp(rk.op) {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "rank %d waiting on rank %d", id, rk.peer)
	}
	return "wait-for graph: " + b.String()
}
