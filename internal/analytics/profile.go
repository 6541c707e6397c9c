// Package analytics turns the raw observability artifacts of internal/obs
// — per-rank event streams and energy summaries — into scaling analytics:
//
//   - PhaseProfile: a per-phase, per-rank breakdown of a run (F/W/S, the
//     virtual-time split, and Eq. 2's energy terms attributed to phases),
//     aggregated with min/mean/max/imbalance across ranks;
//   - Diff: a Hatchet-style divide operator over two profiles that
//     computes per-phase time/energy ratios against a predicted scaling
//     and names the phase that stopped scaling;
//   - sweep drivers for strong scaling (fixed n, growing p — the paper's
//     T÷c at constant E) and weak scaling (fixed per-rank memory, problem
//     grown to fill it) that emit efficiency-vs-p curves with closed-form
//     predictions from internal/core;
//   - CheckCurves: a regression gate comparing freshly measured curves
//     against a committed baseline, so a phase that quietly stops scaling
//     fails CI rather than a code review.
//
// Everything here consumes virtual-time quantities only, so every number
// is deterministic and byte-stable across hosts — which is what lets the
// gate use tight tolerances.
package analytics

import (
	"fmt"
	"io"
	"math"
	"sort"

	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/obs"
	"perfscale/internal/sim"
)

// InitPhase is the synthetic phase name covering activity before a rank's
// first Phase() mark (and whole runs of programs that declare no phases).
const InitPhase = "(init)"

// Agg summarizes one per-rank quantity across the ranks that entered a
// phase.
type Agg struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
}

// Imbalance returns Max/Mean, the classic load-imbalance factor (1 =
// perfectly balanced; 0 when the phase saw none of this quantity).
func (a Agg) Imbalance() float64 {
	if a.Mean == 0 {
		return 0
	}
	return a.Max / a.Mean
}

// aggregate folds per-rank samples into an Agg. n is the rank count the
// mean divides by (ranks that entered the phase).
func aggregate(samples []float64) Agg {
	var a Agg
	if len(samples) == 0 {
		return a
	}
	a.Min = math.Inf(1)
	for _, v := range samples {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
		a.Sum += v
	}
	a.Mean = a.Sum / float64(len(samples))
	return a
}

// PhaseStats is one named phase of a PhaseProfile: every per-rank counter
// the energy model prices, aggregated across the ranks that entered it.
type PhaseStats struct {
	Name string `json:"name"`
	// Ranks is how many ranks entered the phase.
	Ranks int `json:"ranks"`
	// Span is each rank's time inside the phase (from its mark to the next
	// mark, or to the rank's final clock), in virtual seconds. Span.Max is
	// the phase's makespan contribution and the quantity Diff divides.
	Span Agg `json:"span"`
	// Start and End bound the phase's virtual-time window across ranks:
	// the earliest mark and the latest close. Fault plans can target the
	// window (that is how cmd/scalediff degrades one phase).
	Start float64 `json:"window_start_s"`
	End   float64 `json:"window_end_s"`
	// The priced counters, per rank: F, W, S.
	Flops     Agg `json:"flops"`
	WordsSent Agg `json:"words_sent"`
	MsgsSent  Agg `json:"msgs_sent"`
	// The virtual-time split inside the phase, per rank.
	ComputeTime Agg `json:"compute_time"`
	SendTime    Agg `json:"send_time"`
	RecvTime    Agg `json:"recv_time"`
	WaitTime    Agg `json:"wait_time"`
	// Energy is the machine-wide slice of Eq. 2 attributed to the phase:
	// γe·ΣF, βe·ΣW, αe·ΣS from the phase's own counters; δe·Σ(M·span) and
	// εe·Σspan pro-rated by each rank's time in the phase (M is the rank's
	// whole-run peak — the model has no per-phase footprint).
	Energy core.EnergyBreakdown `json:"energy"`
}

// TimeShare returns the phase's share of the run's critical dimension:
// Span.Max over the profile's total time.
func (ps PhaseStats) TimeShare(total float64) float64 {
	if total <= 0 {
		return 0
	}
	return ps.Span.Max / total
}

// PhaseProfile is the per-phase view of one run: the Hatchet-style "graph
// frame" this package diffs. Phases appear in first-entry order (earliest
// mark across ranks); a name marked repeatedly (LU's per-step phases use
// distinct names, but a program may re-enter one) accumulates.
type PhaseProfile struct {
	// Meta identifies the run the profile describes.
	Algorithm string `json:"algorithm"`
	Machine   string `json:"machine"`
	N         int    `json:"n,omitempty"`
	P         int    `json:"p"`
	C         int    `json:"c,omitempty"`
	// T is the run's makespan and Energy the whole-run Eq. 2 total.
	T      float64              `json:"sim_time_s"`
	Energy core.EnergyBreakdown `json:"energy"`
	Phases []PhaseStats         `json:"phases"`
}

// Phase returns the named phase, or nil.
func (p *PhaseProfile) Phase(name string) *PhaseStats {
	for i := range p.Phases {
		if p.Phases[i].Name == name {
			return &p.Phases[i]
		}
	}
	return nil
}

// Meta carries run identification into BuildProfile.
type Meta struct {
	Algorithm string
	N         int
	C         int
}

// phaseAcc accumulates one (rank, phase) contribution.
type phaseAcc struct {
	span, flops, words, msgs      float64
	computeT, sendT, recvT, waitT float64
	memSpan                       float64 // M_rank · span, for δe
	start, end                    float64 // this rank's window in the phase
	windowSet                     bool
	entered                       bool
}

// BuildProfile extracts a PhaseProfile from a finished observed run. The
// collector must have subscribed to the run that produced res (same p).
//
// Segment attribution follows the per-rank event order the bus guarantees:
// a segment belongs to the phase whose mark most recently preceded it on
// its own rank; activity before the first mark lands in InitPhase. A
// rank's span in a phase runs from its mark to its next mark (or its
// final clock), so spans include idle time — a phase that waits is a
// phase that costs.
func BuildProfile(m machine.Params, res *sim.Result, col *obs.Collector, meta Meta) *PhaseProfile {
	p := len(res.PerRank)
	prof := &PhaseProfile{
		Algorithm: meta.Algorithm,
		Machine:   m.Name,
		N:         meta.N,
		P:         p,
		C:         meta.C,
		T:         res.Time(),
	}
	prof.Energy = core.EnergyBreakdown{}
	for _, st := range res.PerRank {
		prof.Energy.Compute += m.GammaE * st.Flops
		prof.Energy.Bandwidth += m.BetaE * st.WordsSent
		prof.Energy.Latency += m.AlphaE * st.MsgsSent
		prof.Energy.Memory += m.DeltaE * st.PeakMemWords * prof.T
		prof.Energy.Leakage += m.EpsilonE * prof.T
	}

	// first[name] is the earliest mark time across ranks (phase order);
	// acc[name][rank] the per-rank accumulator.
	first := map[string]float64{}
	order := []string{}
	acc := map[string][]*phaseAcc{}
	get := func(name string, rank int, at float64) *phaseAcc {
		rs := acc[name]
		if rs == nil {
			rs = make([]*phaseAcc, p)
			acc[name] = rs
			first[name] = at
			order = append(order, name)
		} else if at < first[name] {
			first[name] = at
		}
		if rs[rank] == nil {
			rs[rank] = &phaseAcc{}
		}
		return rs[rank]
	}

	for rank := 0; rank < p; rank++ {
		cur := InitPhase
		curStart := 0.0
		closePhase := func(at float64) {
			if at <= curStart {
				// A zero-span phase with no recorded activity (ranks that
				// mark their first phase at t=0 leave an empty InitPhase)
				// contributes nothing and must not fabricate a row.
				return
			}
			a := get(cur, rank, curStart)
			if !a.windowSet || curStart < a.start {
				a.start = curStart
			}
			if !a.windowSet || at > a.end {
				a.end = at
			}
			a.windowSet = true
			a.span += at - curStart
			a.entered = true
			a.memSpan += res.PerRank[rank].PeakMemWords * (at - curStart)
		}
		events := col.Rank(rank)
		for _, e := range events {
			switch e.Kind {
			case obs.KindPhase:
				closePhase(e.Start)
				cur, curStart = e.Name, e.Start
			case obs.KindCompute:
				a := get(cur, rank, curStart)
				a.flops += e.Flops
				a.computeT += e.Duration()
				a.entered = true
			case obs.KindSend:
				a := get(cur, rank, curStart)
				a.words += float64(e.Words)
				a.msgs += e.Msgs
				a.sendT += e.Duration()
				a.entered = true
			case obs.KindRecv:
				a := get(cur, rank, curStart)
				a.recvT += e.Duration()
				a.entered = true
			case obs.KindWait:
				a := get(cur, rank, curStart)
				a.waitT += e.Duration()
				a.entered = true
			}
		}
		if len(events) > 0 || res.PerRank[rank].Time > 0 {
			closePhase(res.PerRank[rank].Time)
		}
	}

	// Order phases by first entry time, breaking ties by discovery order
	// (stable: per-rank streams are deterministic).
	sort.SliceStable(order, func(i, j int) bool { return first[order[i]] < first[order[j]] })

	for _, name := range order {
		rs := acc[name]
		var spans, flops, words, msgs, ct, st, rt, wt []float64
		stats := PhaseStats{Name: name}
		windowSet := false
		for _, a := range rs {
			if a == nil || !a.entered {
				continue
			}
			if a.windowSet {
				if !windowSet || a.start < stats.Start {
					stats.Start = a.start
				}
				if !windowSet || a.end > stats.End {
					stats.End = a.end
				}
				windowSet = true
			}
			stats.Ranks++
			spans = append(spans, a.span)
			flops = append(flops, a.flops)
			words = append(words, a.words)
			msgs = append(msgs, a.msgs)
			ct = append(ct, a.computeT)
			st = append(st, a.sendT)
			rt = append(rt, a.recvT)
			wt = append(wt, a.waitT)
			stats.Energy.Compute += m.GammaE * a.flops
			stats.Energy.Bandwidth += m.BetaE * a.words
			stats.Energy.Latency += m.AlphaE * a.msgs
			stats.Energy.Memory += m.DeltaE * a.memSpan
			stats.Energy.Leakage += m.EpsilonE * a.span
		}
		if stats.Ranks == 0 {
			continue
		}
		stats.Span = aggregate(spans)
		stats.Flops = aggregate(flops)
		stats.WordsSent = aggregate(words)
		stats.MsgsSent = aggregate(msgs)
		stats.ComputeTime = aggregate(ct)
		stats.SendTime = aggregate(st)
		stats.RecvTime = aggregate(rt)
		stats.WaitTime = aggregate(wt)
		prof.Phases = append(prof.Phases, stats)
	}
	return prof
}

// WriteText renders the profile as an aligned table, one row per phase.
func (p *PhaseProfile) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s p=%d n=%d machine=%s  T=%.6g s  E=%.6g J\n",
		p.Algorithm, p.P, p.N, p.Machine, p.T, p.Energy.Total()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-16s %5s %12s %7s %7s %12s %12s %12s %12s\n",
		"phase", "ranks", "span max (s)", "share", "imbal", "flops/rank", "words/rank", "wait max (s)", "energy (J)"); err != nil {
		return err
	}
	for _, ps := range p.Phases {
		if _, err := fmt.Fprintf(w, "%-16s %5d %12.5g %6.1f%% %7.2f %12.5g %12.5g %12.5g %12.5g\n",
			ps.Name, ps.Ranks, ps.Span.Max, 100*ps.TimeShare(p.T), ps.Span.Imbalance(),
			ps.Flops.Mean, ps.WordsSent.Mean, ps.WaitTime.Max, ps.Energy.Total()); err != nil {
			return err
		}
	}
	return nil
}
