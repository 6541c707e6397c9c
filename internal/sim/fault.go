package sim

import "fmt"

// FaultPlan schedules deterministic failures for a run. Every decision is
// keyed only on (rank, virtual clock, per-rank send count, delivery copy
// index) hashed with Seed, never on wall-clock time or Go scheduling, so a
// plan reproduces the exact same faults — and therefore byte-identical
// Stats — on every run.
//
// Three fault classes are supported:
//
//   - rank crashes at virtual times (Crashes). By default a crash kills the
//     rank: its next instrumented operation panics and Run reports a
//     *CrashError. With Respawn set the rank instead survives as a cold
//     spare — it keeps executing the SPMD program (the protocol state
//     machine is assumed to outlive the failure, as under message logging)
//     but its application data is lost; resilient algorithms poll
//     Rank.TakeCrashed at phase boundaries and run their recovery protocol,
//     paying RebootTime of virtual wait time at the crash instant.
//   - message faults on links (Links): a matching send is dropped,
//     duplicated, or corrupted with the given probabilities. The sender
//     always pays the full send cost; the fate of the message is decided
//     by the deterministic hash.
//   - degraded-link windows (Degraded): while the sender's clock lies in
//     the window, matching sends pay inflated latency and per-word time.
type FaultPlan struct {
	// Seed keys every probabilistic decision of the plan.
	Seed uint64
	// Crashes maps rank id to the virtual time at which it fails. The
	// crash fires at the first instrumented operation (Compute, Send,
	// Recv) the rank enters with clock ≥ the scheduled time.
	Crashes map[int]float64
	// Respawn selects fail-stop-with-cold-spare semantics instead of
	// killing the rank (see type comment). Recovery algorithms require it.
	Respawn bool
	// RebootTime is the virtual wait a respawned rank pays when its crash
	// fires (accounted as WaitTime, keeping the Stats decomposition exact).
	RebootTime float64
	// Links lists message-fault rules; every rule matching a send rolls
	// its own dice.
	Links []LinkFault
	// Degraded lists link-degradation windows; factors of all matching
	// windows multiply together.
	Degraded []DegradedLink
}

// LinkFault injects message faults on matching sends. Src/Dst of -1 match
// any rank; the window [From, Until) is in virtual seconds of the sender's
// clock at the moment the message leaves, with Until = 0 meaning unbounded.
type LinkFault struct {
	Src, Dst    int
	From, Until float64
	// DropProb is the probability the message's primary copy is silently
	// discarded (a receiver the send was its only copy for then hangs
	// until quiescence converts the hang into a diagnostic error). A
	// simultaneously duplicated message still delivers its duplicate —
	// each copy routes independently.
	DropProb float64
	// DupProb is the probability the message is delivered twice.
	DupProb float64
	// CorruptProb is the probability one payload word (at a hash-chosen
	// index) is perturbed by +1.0.
	CorruptProb float64
}

// DegradedLink inflates a link's parameters inside a virtual-time window:
// matching sends pay AlphaFactor·α and BetaFactor·β. Src/Dst of -1 match
// any rank; Until = 0 means unbounded.
type DegradedLink struct {
	Src, Dst    int
	From, Until float64
	AlphaFactor float64
	BetaFactor  float64
}

// CrashError is the error Run reports for a rank killed by an injected
// crash (FaultPlan without Respawn).
type CrashError struct {
	Rank int
	// Time is the scheduled virtual crash time.
	Time float64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("sim: rank %d crashed at injected fault (t=%g)", e.Rank, e.Time)
}

// crashPanic carries a hard crash out of the SPMD function; Run recovers it
// and converts it into a *CrashError.
type crashPanic struct{ err *CrashError }

// Validate checks the plan's parameters.
func (fp *FaultPlan) Validate(p int) error {
	for rank, t := range fp.Crashes {
		if rank < 0 || rank >= p {
			return fmt.Errorf("sim: fault plan crashes rank %d outside [0,%d)", rank, p)
		}
		if t < 0 {
			return fmt.Errorf("sim: fault plan crash time %g is negative", t)
		}
	}
	if fp.RebootTime < 0 {
		return fmt.Errorf("sim: fault plan reboot time %g is negative", fp.RebootTime)
	}
	for _, l := range fp.Links {
		for _, pr := range []float64{l.DropProb, l.DupProb, l.CorruptProb} {
			if pr < 0 || pr > 1 {
				return fmt.Errorf("sim: fault plan probability %g outside [0,1]", pr)
			}
			// A fractional probability rolls the seeded dice; with Seed 0
			// the plan still replays bitwise (the hash is well defined),
			// but the author almost certainly forgot the seed that makes
			// the scenario an identity rather than an accident. Probs of
			// exactly 0 or 1 are deterministic and need no seed.
			if fp.Seed == 0 && pr > 0 && pr < 1 {
				return fmt.Errorf("sim: fault plan has probabilistic link fault (prob %g) but no Seed; fractional probabilities require an explicit seed", pr)
			}
		}
		if err := validateWindow(l.From, l.Until); err != nil {
			return fmt.Errorf("sim: fault plan link %d->%d: %w", l.Src, l.Dst, err)
		}
	}
	for _, d := range fp.Degraded {
		if d.AlphaFactor < 0 || d.BetaFactor < 0 {
			return fmt.Errorf("sim: degraded-link factors must be non-negative, got %+v", d)
		}
		if err := validateWindow(d.From, d.Until); err != nil {
			return fmt.Errorf("sim: degraded link %d->%d: %w", d.Src, d.Dst, err)
		}
	}
	return nil
}

// validateWindow rejects malformed [From, Until) fault windows. Until = 0
// means unbounded; any other end must lie strictly after the start, or the
// window silently matches nothing and the plan is not the scenario its
// author wrote down.
func validateWindow(from, until float64) error {
	if from < 0 {
		return fmt.Errorf("window start %g is negative", from)
	}
	if until != 0 && until <= from {
		return fmt.Errorf("window end %g not after start %g (Until = 0 means unbounded)", until, from)
	}
	return nil
}

// Clone returns a deep copy of the plan, so campaign-style tooling can
// mutate a candidate (shrinking, probability bisection) without aliasing
// the original's maps and slices.
func (fp *FaultPlan) Clone() *FaultPlan {
	if fp == nil {
		return nil
	}
	cp := &FaultPlan{
		Seed:       fp.Seed,
		Respawn:    fp.Respawn,
		RebootTime: fp.RebootTime,
	}
	if fp.Crashes != nil {
		cp.Crashes = make(map[int]float64, len(fp.Crashes))
		for r, t := range fp.Crashes {
			cp.Crashes[r] = t
		}
	}
	cp.Links = append([]LinkFault(nil), fp.Links...)
	cp.Degraded = append([]DegradedLink(nil), fp.Degraded...)
	return cp
}

// Merge returns a new plan carrying the union of both plans' fault atoms:
// all crashes (on a conflicting rank the earlier crash wins — the rank is
// already dead when the later one would fire), all link rules, and all
// degradation windows. Seed, Respawn and RebootTime come from the receiver;
// a compound chaos scenario is built by merging primitives into a seeded
// base plan.
func (fp *FaultPlan) Merge(o *FaultPlan) *FaultPlan {
	out := fp.Clone()
	if o == nil {
		return out
	}
	for r, t := range o.Crashes {
		if have, ok := out.Crashes[r]; ok && have <= t {
			continue
		}
		if out.Crashes == nil {
			out.Crashes = map[int]float64{}
		}
		out.Crashes[r] = t
	}
	out.Links = append(out.Links, o.Links...)
	out.Degraded = append(out.Degraded, o.Degraded...)
	return out
}

// CoordCount counts the plan's fault atoms — scheduled crashes, link-fault
// rules and degradation windows. It is the coordinate measure minimized by
// reproducer shrinking: a minimal plan is one no atom can be removed from
// without losing the behavior it reproduces.
func (fp *FaultPlan) CoordCount() int {
	if fp == nil {
		return 0
	}
	return len(fp.Crashes) + len(fp.Links) + len(fp.Degraded)
}

// matches reports whether a rule scoped to (rSrc, rDst, [from, until)) covers
// a send from src to dst at virtual time clock.
func faultMatches(rSrc, rDst int, from, until float64, src, dst int, clock float64) bool {
	if rSrc != -1 && rSrc != src {
		return false
	}
	if rDst != -1 && rDst != dst {
		return false
	}
	if clock < from {
		return false
	}
	if until > 0 && clock >= until {
		return false
	}
	return true
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 maps (seed, src, dst, seq, salt) to a uniform value in [0, 1).
// seq is the sender's running send count, so the value depends only on the
// program's deterministic communication history.
func (fp *FaultPlan) hash01(src, dst, seq int, salt uint64) float64 {
	h := mix64(fp.Seed ^ mix64(salt))
	h = mix64(h ^ uint64(src))
	h = mix64(h ^ uint64(dst))
	h = mix64(h ^ uint64(seq))
	return float64(h>>11) / (1 << 53)
}

// Distinct salts keep the drop/dup/corrupt/index dice independent. The
// corruption dice exist once per delivered copy — a duplicated message's
// extra copy rolls its own corruption fate and index, keyed on the copy
// index via the dup-specific salts, so one send can deliver one clean and
// one corrupted copy. Determinism is preserved: every decision remains a
// pure function of (seed, src, dst, seq, copy).
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltCorrupt
	saltCorruptIndex
	saltDupCorrupt
	saltDupCorruptIndex
)

// Copy indices of the deliveries a single Send can make.
const (
	copyPrimary = 0
	copyDup     = 1
)

// messageFate rolls the deterministic dice for one send. corrupt is the
// primary copy's corruption fate; dupCorrupt is the independent fate of the
// duplicated copy (meaningful only when dup is set).
func (fp *FaultPlan) messageFate(src, dst, seq int, clock float64) (drop, dup, corrupt, dupCorrupt bool) {
	for _, l := range fp.Links {
		if !faultMatches(l.Src, l.Dst, l.From, l.Until, src, dst, clock) {
			continue
		}
		if l.DropProb > 0 && fp.hash01(src, dst, seq, saltDrop) < l.DropProb {
			drop = true
		}
		if l.DupProb > 0 && fp.hash01(src, dst, seq, saltDup) < l.DupProb {
			dup = true
		}
		if l.CorruptProb > 0 {
			if fp.hash01(src, dst, seq, saltCorrupt) < l.CorruptProb {
				corrupt = true
			}
			if fp.hash01(src, dst, seq, saltDupCorrupt) < l.CorruptProb {
				dupCorrupt = true
			}
		}
	}
	return drop, dup, corrupt, dupCorrupt
}

// corruptIndex picks the payload word to perturb for the given copy.
func (fp *FaultPlan) corruptIndex(src, dst, seq, copy, n int) int {
	salt := saltCorruptIndex
	if copy == copyDup {
		salt = saltDupCorruptIndex
	}
	return int(fp.hash01(src, dst, seq, salt) * float64(n))
}

// degradeFactors returns the combined α/β inflation for a send.
func (fp *FaultPlan) degradeFactors(src, dst int, clock float64) (alphaF, betaF float64) {
	alphaF, betaF = 1, 1
	for _, d := range fp.Degraded {
		if faultMatches(d.Src, d.Dst, d.From, d.Until, src, dst, clock) {
			alphaF *= d.AlphaFactor
			betaF *= d.BetaFactor
		}
	}
	return alphaF, betaF
}

// crashCheck fires the rank's scheduled crash once its clock has passed the
// scheduled time. It is called on entry to every instrumented operation, so
// the firing point depends only on the deterministic virtual clock. Being
// the one hook every operation passes through, it also carries the run's
// real-time cancellation check (cancel.go).
func (r *Rank) crashCheck() {
	r.cancelCheck()
	fp := r.cluster.cost.Faults
	if fp == nil || r.crashDone {
		return
	}
	t, ok := fp.Crashes[r.id]
	if !ok {
		r.crashDone = true
		return
	}
	if r.clock < t {
		return
	}
	r.crashDone = true
	r.emitCrash(CrashEvent{Rank: r.id, Scheduled: t, Time: r.clock, Respawn: fp.Respawn})
	if !fp.Respawn {
		panic(crashPanic{err: &CrashError{Rank: r.id, Time: t}})
	}
	r.crashPending = true
	if fp.RebootTime > 0 {
		r.stats.WaitTime += fp.RebootTime
		r.emit(Segment{Kind: SegWait, Start: r.clock, End: r.clock + fp.RebootTime, Peer: -1})
		r.clock += fp.RebootTime
	}
}

// TakeCrashed reports whether an injected crash has fired on this rank since
// the last call, and clears the notification. Resilient algorithms call it
// at phase boundaries (under FaultPlan.Respawn) to learn that their local
// application data is lost and recovery must run.
func (r *Rank) TakeCrashed() bool {
	c := r.crashPending
	r.crashPending = false
	return c
}
