package obs

import (
	"math"
	"sort"

	"perfscale/internal/sim"
)

// segments returns one rank's timeline: its segment events with positive
// duration, in time order. Zero-length segments (a send under zero α/β, a
// Compute(0)) occupy no time, so the timeline analyses skip them; the
// critical-path walk must never step onto one, since it would not move
// the walk back in time.
func (c *Collector) segments(rank int) []sim.Segment {
	var segs []sim.Segment
	for _, e := range c.perRank[rank] {
		if e.Kind > KindRecv || e.End <= e.Start {
			continue
		}
		segs = append(segs, sim.Segment{
			Kind:  sim.SegmentKind(e.Kind), // segment kinds mirror sim's order
			Start: e.Start, End: e.End, Peer: e.Peer,
			Words: e.Words, Msgs: e.Msgs, Flops: e.Flops,
		})
	}
	return segs
}

// CriticalPath walks the message-dependency graph of a captured run
// backwards from the last-finishing rank: within a rank, time flows through
// its segments; a wait segment hands off to the sender whose message
// released it. The returned segments are in forward time order and tile
// [0, T] exactly (gaps can only be leading idle time at t = 0, reported as
// a wait with peer -1).
//
// The path's composition answers "what would speed this run up": compute
// segments respond to γt, send segments to αt/βt, and an empty wait share
// means the run is a single dependency chain with no slack.
func CriticalPath(col *Collector) []sim.Segment {
	timelines := make([][]sim.Segment, col.P())
	last, lastEnd := -1, -1.0
	for rank := range timelines {
		segs := col.segments(rank)
		timelines[rank] = segs
		if len(segs) > 0 && segs[len(segs)-1].End > lastEnd {
			last, lastEnd = rank, segs[len(segs)-1].End
		}
	}
	if last < 0 {
		return nil
	}
	var path []sim.Segment
	rank := last
	now := lastEnd
	for now > 0 {
		segs := timelines[rank]
		// Find the segment on this rank ending at `now` (binary search on
		// End; segments are in time order).
		i := sort.Search(len(segs), func(i int) bool { return segs[i].End >= now-1e-15 })
		if i >= len(segs) || segs[i].End < now-1e-9 {
			// No activity ends here: leading idle time on this rank.
			path = append(path, sim.Segment{Kind: sim.SegWait, Start: 0, End: now, Peer: -1})
			break
		}
		seg := segs[i]
		if seg.Kind == sim.SegWait && seg.Peer >= 0 {
			// The wait ended when the sender's message arrived: jump to the
			// sender at the same instant (the send segment ends there).
			rank = seg.Peer
			continue
		}
		// Peer-less waits (crash reboot stalls) have no releasing sender:
		// the time passes on this rank, so they stay on the path.
		path = append(path, seg)
		now = seg.Start
	}
	// Reverse into forward time order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PathBreakdown sums a segment list's duration by kind.
func PathBreakdown(path []sim.Segment) map[sim.SegmentKind]float64 {
	out := map[sim.SegmentKind]float64{}
	for _, s := range path {
		out[s.Kind] += s.Duration()
	}
	return out
}

// Utilization returns each rank's busy fraction of a captured run: its
// non-wait segment time divided by the run's total time.
func Utilization(col *Collector, totalTime float64) []float64 {
	out := make([]float64, col.P())
	if totalTime <= 0 {
		return out
	}
	for rank := range out {
		busy := 0.0
		for _, s := range col.segments(rank) {
			if s.Kind != sim.SegWait {
				busy += s.Duration()
			}
		}
		out[rank] = math.Min(1, busy/totalTime)
	}
	return out
}
