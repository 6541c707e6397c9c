// Package campaign is the chaos-campaign engine: it explores the fault
// space of the resilience stack systematically instead of by hand-written
// scenario. A campaign enumerates candidate injection points from a clean
// run's observer stream (phase boundaries, active links, timer windows),
// sweeps seeded randomized and structured fault plans through the
// sim/resilience/ARQ stack, checks a pluggable invariant set against the
// clean baseline (bit-identical numerics, overhead bands, communication
// lower-bound floors, no deadlock wedge, replay determinism), and
// delta-debugs every violating plan down to a minimal reproducer emitted
// as a self-contained JSON artifact. Campaign progress checkpoints to a
// serializable State, so an interrupted multi-hour campaign resumes
// exactly where it stopped with a bit-identical corpus.
//
// See docs/CAMPAIGN.md for the enumeration → sweep → shrink → replay
// lifecycle and cmd/campaign for the CLI.
package campaign

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"perfscale/internal/bounds"
	"perfscale/internal/core"
	"perfscale/internal/machine"
	"perfscale/internal/matrix"
	"perfscale/internal/resilience"
	"perfscale/internal/sim"
)

// Target describes the workload a campaign drives. It is fully
// serializable, so a reproducer artifact reconstructs the exact run —
// operand seeds are fixed (41/42, the recovery-family convention) and the
// machine is named, never embedded wall-clock state.
type Target struct {
	// Workload names the program under test; "summa-arq" (SUMMA over the
	// ARQ endpoints, the self-healing workload) is the only one today.
	Workload string `json:"workload"`
	// N and Q size the run: an n×n matmul on a q×q grid (p = q²).
	N int `json:"n"`
	Q int `json:"q"`
	// Machine is the machine-preset name pricing the run (not a file
	// path: artifacts must not depend on files outside the repo).
	Machine string `json:"machine"`

	// The ARQ provisioning knobs. Zero keeps the endpoint default; the
	// detector knobs are the campaign's canonical seeded violation — an
	// under-provisioned DetectorInterval turns maskable background loss
	// into spurious peer-failure verdicts.
	MaxAttempts    int     `json:"max_attempts,omitempty"`
	MaxRTOFactor   float64 `json:"max_rto_factor,omitempty"`
	DetectorRTOs   float64 `json:"detector_rtos,omitempty"`
	DetectorMisses int     `json:"detector_misses,omitempty"`
}

// withDefaults fills the zero fields with the small-grid defaults.
func (t Target) withDefaults() Target {
	if t.Workload == "" {
		t.Workload = "summa-arq"
	}
	if t.N == 0 {
		t.N = 32
	}
	if t.Q == 0 {
		t.Q = 4
	}
	if t.Machine == "" {
		t.Machine = "simdefault"
	}
	return t
}

// Validate rejects targets the workload cannot host.
func (t Target) Validate() error {
	if t.Workload != "summa-arq" {
		return fmt.Errorf("campaign: unknown workload %q (have: summa-arq)", t.Workload)
	}
	if t.Q <= 0 || t.N <= 0 || t.N%t.Q != 0 {
		return fmt.Errorf("campaign: target needs n divisible by q, got n=%d q=%d", t.N, t.Q)
	}
	if _, err := t.params(); err != nil {
		return err
	}
	if t.MaxAttempts < 0 || t.MaxRTOFactor < 0 || t.DetectorRTOs < 0 || t.DetectorMisses < 0 {
		return fmt.Errorf("campaign: negative ARQ knob in target %+v", t)
	}
	return nil
}

// Ranks returns p, the process count of the run.
func (t Target) Ranks() int { return t.Q * t.Q }

// params resolves the named machine preset.
func (t Target) params() (machine.Params, error) {
	return machine.Resolve(t.Machine)
}

// arqConfig builds the endpoint config: the words-sized default with the
// target's provisioning knobs applied.
func (t Target) arqConfig(cost sim.Cost) resilience.ARQConfig {
	nb := t.N / t.Q
	cfg := resilience.ARQDefaults(cost, nb*nb)
	if t.MaxAttempts > 0 {
		cfg.MaxAttempts = t.MaxAttempts
	}
	if t.MaxRTOFactor > 0 {
		cfg.MaxRTO = t.MaxRTOFactor * cfg.RTO
	}
	if t.DetectorRTOs > 0 {
		cfg.DetectorInterval = t.DetectorRTOs * cfg.RTO
	}
	if t.DetectorMisses > 0 {
		cfg.DetectorMisses = t.DetectorMisses
	}
	return cfg
}

// Outcome is the deterministic summary of one target run under one fault
// plan: digests instead of payloads, typed-error classification instead of
// full diagnostics, no wall-clock anywhere. Two runs of the same plan must
// produce identical Outcomes — that is the replay invariant, and what
// artifact verification compares bitwise.
type Outcome struct {
	Completed bool `json:"completed"`
	// ErrorKind classifies a failed run: "peer-failure", "crash",
	// "deadlock", "cancelled" or "other".
	ErrorKind string `json:"error_kind,omitempty"`
	// Error is the primary typed error's text (virtual quantities only).
	// Deadlock diagnostics embed real-time state, so for "deadlock" the
	// kind alone is recorded.
	Error string `json:"error,omitempty"`
	// OutputDigest and StatsDigest are FNV-1a hashes of the assembled
	// product's bits and of every rank's Stats + ARQ counters.
	OutputDigest string  `json:"output_digest,omitempty"`
	StatsDigest  string  `json:"stats_digest,omitempty"`
	SimTime      float64 `json:"sim_time,omitempty"`
	EnergyJ      float64 `json:"energy_j,omitempty"`
	// MaxWordsMoved is the busiest rank's WordsSent+WordsRecv — the
	// quantity the composite lower bounds floor.
	MaxWordsMoved float64 `json:"max_words_moved,omitempty"`
	PeakMemWords  float64 `json:"peak_mem_words,omitempty"`
	// Retransmits and OptimisticSends summarize the recovery work.
	Retransmits     int `json:"retransmits,omitempty"`
	OptimisticSends int `json:"optimistic_sends,omitempty"`
}

// identical compares two outcomes bitwise and names the first difference.
func (o *Outcome) identical(b *Outcome) (string, bool) {
	if *o == *b {
		return "", true
	}
	return fmt.Sprintf("got %+v, want %+v", *o, *b), false
}

// Run executes the target once under the given fault plan (nil for the
// clean baseline) and summarizes the result. The
// returned error is a harness failure (unresolvable machine, invalid
// target); every way the run itself can end — including typed failures —
// is an Outcome.
func (t Target) Run(ctx context.Context, plan *sim.FaultPlan, obs ...sim.Observer) (*Outcome, error) {
	m, err := t.params()
	if err != nil {
		return nil, err
	}
	cost := core.SimCost(m)
	cost.Faults, cost.Observers, cost.Context = plan, obs, ctx
	a := matrix.Random(t.N, t.N, 41)
	b := matrix.Random(t.N, t.N, 42)
	res, err := resilience.SUMMAARQ(cost, t.Q, t.arqConfig(cost), a, b)
	if err != nil {
		kind, text := classify(ctx, err)
		return &Outcome{ErrorKind: kind, Error: text}, nil
	}
	rep := res.Report()
	out := &Outcome{
		Completed:       true,
		OutputDigest:    outputDigest(res.C),
		StatsDigest:     statsDigest(res.Sim, res.ARQ),
		SimTime:         res.Sim.Time(),
		EnergyJ:         core.PriceSim(m, res.Sim).Total(),
		Retransmits:     rep.Retransmits,
		OptimisticSends: rep.OptimisticSends,
	}
	for _, s := range res.Sim.PerRank {
		out.MaxWordsMoved = math.Max(out.MaxWordsMoved, s.WordsSent+s.WordsRecv)
		out.PeakMemWords = math.Max(out.PeakMemWords, s.PeakMemWords)
	}
	return out, nil
}

// classify maps a run error to its deterministic (kind, text) summary.
// Precedence: cancellation (real time leaked in — the outcome must never
// be recorded), then the typed failures in diagnostic-value order. The
// text is the primary typed error's own rendering, never the full
// multi-rank join, so it does not depend on which rank's failure the join
// happens to list first.
func classify(ctx context.Context, err error) (kind, text string) {
	var (
		cancelled *sim.CancelledError
		pf        *resilience.PeerFailure
		ce        *sim.CrashError
		de        *sim.DeadlockError
	)
	switch {
	case ctx != nil && ctx.Err() != nil, errors.As(err, &cancelled):
		return "cancelled", ""
	case errors.As(err, &pf):
		return "peer-failure", pf.Error()
	case errors.As(err, &ce):
		return "crash", ce.Error()
	case errors.As(err, &de):
		// The deadlock snapshot embeds real-time state; record the kind
		// plus the blocked operation only.
		return "deadlock", fmt.Sprintf("rank %d blocked in %s on peer %d", de.Rank, de.Op, de.Peer)
	default:
		line, _, _ := strings.Cut(err.Error(), "\n")
		return "other", line
	}
}

// outputDigest hashes the product's bits.
func outputDigest(c *matrix.Dense) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(c.Rows))
	h.Write(buf[:])
	for _, v := range c.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// statsDigest hashes every rank's Stats and ARQ counters bitwise.
func statsDigest(res *sim.Result, arq []resilience.ARQStats) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	puti := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, s := range res.PerRank {
		put(s.Flops)
		put(s.WordsSent)
		put(s.MsgsSent)
		put(s.WordsRecv)
		put(s.MsgsRecv)
		put(s.PeakMemWords)
		put(s.Time)
		put(s.ComputeTime)
		put(s.SendTime)
		put(s.RecvTime)
		put(s.WaitTime)
	}
	for _, s := range arq {
		puti(s.Retransmits)
		puti(s.Timeouts)
		puti(s.Misses)
		puti(s.ProbesSent)
		puti(s.ProbesAnswered)
		puti(s.DupsAbsorbed)
		puti(s.OptimisticSends)
		puti(s.BeatsSent)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// boundsFloor returns the composite communication lower bound for the
// target at the measured per-rank memory — the words-moved floor no run,
// faulty or not, may dip under without breaking a theorem.
func boundsFloor(t Target, peakMemWords float64) float64 {
	bs := bounds.MatMulBounds(bounds.MatMulProblem{
		M: float64(t.N), K: float64(t.N), N: float64(t.N),
		P:   float64(t.Ranks()),
		Mem: peakMemWords,
	})
	return bs.Max().Words
}
