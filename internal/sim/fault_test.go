package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
)

func TestHardCrashSurfacesAsCrashError(t *testing.T) {
	cost := unitCost
	cost.Faults = &FaultPlan{Crashes: map[int]float64{2: 1500}}
	_, err := Run(4, cost, func(r *Rank) error {
		r.Compute(1)          // clock 1
		r.Send(3-r.ID(), nil) // pairwise exchange: clock 1001
		r.Recv(3 - r.ID())
		r.Compute(1000) // clock ≥ 2001: rank 2's next op crashes
		r.Send(3-r.ID(), nil)
		r.Recv(3 - r.ID())
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected crash to surface")
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 2 {
		t.Errorf("expected CrashError for rank 2, got %v", err)
	}
}

func TestRespawnCrashDeliversTakeCrashed(t *testing.T) {
	cost := unitCost
	cost.Faults = &FaultPlan{
		Crashes:    map[int]float64{0: 0.5},
		Respawn:    true,
		RebootTime: 7,
	}
	fired := 0
	res, err := Run(1, cost, func(r *Rank) error {
		r.Compute(1) // clock 1 ≥ 0.5: crash fires on next instrumented op
		r.Compute(1)
		if r.TakeCrashed() {
			fired++
		}
		if r.TakeCrashed() { // notification must be consumed exactly once
			fired++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("TakeCrashed fired %d times, want 1", fired)
	}
	s := res.PerRank[0]
	if s.WaitTime != 7 {
		t.Errorf("reboot must be charged as wait time: got %g, want 7", s.WaitTime)
	}
	if s.Time != s.ComputeTime+s.SendTime+s.RecvTime+s.WaitTime {
		t.Errorf("stats decomposition broken after reboot: %+v", s)
	}
}

func TestDroppedMessageBecomesWatchdogError(t *testing.T) {
	cost := zeroCost
	cost.Faults = &FaultPlan{
		Links: []LinkFault{{Src: 0, Dst: 1, DropProb: 1}},
	}
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{42})
			r.Recv(1) // keep rank 0 alive so the drop, not an exit, is the cause
			return nil
		}
		r.Recv(0) // never arrives: quiescence must convert this into an error
		r.Send(0, []float64{1})
		return nil
	})
	if err == nil {
		t.Fatal("dropped message must surface as an error, not a hang")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Errorf("expected a DeadlockError, got %v", err)
	}
}

func TestDuplicatedMessageArrivesTwice(t *testing.T) {
	cost := zeroCost
	cost.Faults = &FaultPlan{
		Links: []LinkFault{{Src: 0, Dst: 1, DupProb: 1}},
	}
	_, err := Run(2, cost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{3, 4})
			return nil
		}
		a := r.Recv(0)
		b := r.Recv(0) // the injected duplicate
		if a[0] != 3 || b[0] != 3 || a[1] != 4 || b[1] != 4 {
			t.Errorf("duplicate should carry identical data: %v vs %v", a, b)
		}
		// The two copies must not alias: mutating one is invisible to the other.
		a[0] = -1
		if b[0] == -1 {
			t.Error("duplicate aliases the original payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionIsDeterministic(t *testing.T) {
	run := func() []float64 {
		cost := zeroCost
		cost.Faults = &FaultPlan{
			Seed:  99,
			Links: []LinkFault{{Src: 0, Dst: 1, CorruptProb: 1}},
		}
		var got []float64
		_, err := Run(2, cost, func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, []float64{10, 20, 30, 40})
				return nil
			}
			got = r.Recv(0)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	clean := []float64{10, 20, 30, 40}
	diffs := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption not reproducible: %v vs %v", a, b)
		}
		if a[i] != clean[i] {
			diffs++
			if a[i] != clean[i]+1 {
				t.Errorf("corruption must perturb by +1: word %d is %g", i, a[i])
			}
		}
	}
	if diffs != 1 {
		t.Errorf("exactly one word must be corrupted, got %d in %v", diffs, a)
	}
}

// TestDuplicateRollsIndependentCorruptionFate pins the per-copy fault fix:
// a duplicated message's extra copy rolls its own corruption dice and index
// (keyed on the copy index), instead of inheriting the primary's fate.
func TestDuplicateRollsIndependentCorruptionFate(t *testing.T) {
	const k = 64
	// corrupted runs a 1-duplicated send of k zero words and returns the
	// indices of the perturbed words in the two delivered copies (the
	// injected duplicate arrives first, then the primary).
	corrupted := func(seed uint64, corruptProb float64) (dup, prim []int) {
		cost := zeroCost
		cost.Faults = &FaultPlan{
			Seed:  seed,
			Links: []LinkFault{{Src: 0, Dst: 1, DupProb: 1, CorruptProb: corruptProb}},
		}
		_, err := Run(2, cost, func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, make([]float64, k))
				return nil
			}
			for _, idx := range []*[]int{&dup, &prim} {
				for i, v := range r.Recv(0) {
					if v != 0 {
						*idx = append(*idx, i)
						if v != 1 {
							t.Errorf("word %d perturbed by %g, want +1", i, v)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return dup, prim
	}

	// CorruptProb 1: both copies corrupted, each in exactly one word, at
	// independently hashed indices. With k=64 words, scanning a few seeds
	// must find one where the two indices differ.
	sawDistinctIndex := false
	for seed := uint64(0); seed < 8; seed++ {
		dup, prim := corrupted(seed, 1)
		if len(dup) != 1 || len(prim) != 1 {
			t.Fatalf("seed %d: CorruptProb 1 must corrupt each copy in exactly one word (dup words %v, primary words %v)",
				seed, dup, prim)
		}
		sawDistinctIndex = sawDistinctIndex || dup[0] != prim[0]
	}
	if !sawDistinctIndex {
		t.Error("duplicate never picked a different corruption index than the primary across 8 seeds")
	}

	// CorruptProb 0.5: the copies' fates are independent coin flips, so a
	// seed scan must find both mixed outcomes — clean duplicate with a
	// corrupted primary, and the reverse.
	// (Seed 0 is skipped: a fractional probability without an explicit
	// seed is a validation error.)
	sawCleanDupCorruptPrim, sawCorruptDupCleanPrim := false, false
	for seed := uint64(1); seed < 201 && !(sawCleanDupCorruptPrim && sawCorruptDupCleanPrim); seed++ {
		dup, prim := corrupted(seed, 0.5)
		sawCleanDupCorruptPrim = sawCleanDupCorruptPrim || len(dup) == 0 && len(prim) == 1
		sawCorruptDupCleanPrim = sawCorruptDupCleanPrim || len(dup) == 1 && len(prim) == 0
	}
	if !sawCleanDupCorruptPrim || !sawCorruptDupCleanPrim {
		t.Errorf("copies' corruption fates are not independent: clean-dup/corrupt-primary seen %v, corrupt-dup/clean-primary seen %v",
			sawCleanDupCorruptPrim, sawCorruptDupCleanPrim)
	}
}

func TestDegradedLinkWindowInflatesSendCost(t *testing.T) {
	// The window [10, 100) is matched on a send's start clock: sends that
	// start at 0 and at 9 (ending inside the window) pay α+β = 2, one that
	// starts at 22 pays 10α+10β = 20.
	cost := Cost{GammaT: 1, AlphaT: 1, BetaT: 1}
	cost.Faults = &FaultPlan{
		Degraded: []DegradedLink{{
			Src: -1, Dst: -1, From: 10, Until: 100,
			AlphaFactor: 10, BetaFactor: 10,
		}},
	}
	res, err := Run(2, cost, func(r *Rank) error {
		for _, flops := range []float64{0, 7, 11} { // send start clocks 0, 9, 22
			if r.ID() == 0 {
				r.Compute(flops)
				r.Send(1, []float64{1})
			} else {
				r.Recv(0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerRank[0].SendTime; got != 24 {
		t.Errorf("send time %g, want 2 + 2 + 20 outside, outside and inside the window", got)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	bad := []Cost{
		{Faults: &FaultPlan{Crashes: map[int]float64{9: 1}}},              // rank out of range
		{Faults: &FaultPlan{Crashes: map[int]float64{0: -1}}},             // negative time
		{Faults: &FaultPlan{RebootTime: -1}},                              // negative reboot
		{Faults: &FaultPlan{Links: []LinkFault{{DropProb: 1.5}}}},         // prob > 1
		{Faults: &FaultPlan{Degraded: []DegradedLink{{AlphaFactor: -2}}}}, // negative factor
		{chanCap: -1}, // negative buffer
		// Link windows with End ≤ Start match nothing: the plan is not the
		// scenario its author wrote down.
		{Faults: &FaultPlan{Seed: 1, Links: []LinkFault{{From: 2, Until: 1, DropProb: 0.5}}}},
		{Faults: &FaultPlan{Seed: 1, Links: []LinkFault{{From: 2, Until: 2, DropProb: 0.5}}}},
		{Faults: &FaultPlan{Links: []LinkFault{{From: -0.5, DropProb: 1}}}}, // negative window start
		{Faults: &FaultPlan{Degraded: []DegradedLink{{From: 3, Until: 1, AlphaFactor: 2, BetaFactor: 2}}}},
		{Faults: &FaultPlan{Degraded: []DegradedLink{{From: -1, AlphaFactor: 2, BetaFactor: 2}}}},
		// Fractional probabilities roll the seeded dice; a Seed-less plan
		// with one is almost certainly missing its seed.
		{Faults: &FaultPlan{Links: []LinkFault{{DropProb: 0.25}}}},
		{Faults: &FaultPlan{Links: []LinkFault{{DupProb: 0.5}}}},
		{Faults: &FaultPlan{Links: []LinkFault{{CorruptProb: 0.01}}}},
		// A rule on a rank that does not exist, and a number compared
		// against NaN or infinity, match nothing or everything: a NaN crash
		// time fires at the rank's first op (clock < NaN is false).
		{Faults: &FaultPlan{Links: []LinkFault{{Src: 99, Dst: -1, DropProb: 1}}}},
		{Faults: &FaultPlan{Degraded: []DegradedLink{{Src: -1, Dst: -5, AlphaFactor: 2, BetaFactor: 2}}}},
		{Faults: &FaultPlan{Links: []LinkFault{{Src: -1, Dst: -1, DupProb: math.NaN()}}}},
		{Faults: &FaultPlan{Links: []LinkFault{{Src: -1, Dst: -1, From: math.NaN(), DropProb: 1}}}},
		{Faults: &FaultPlan{Crashes: map[int]float64{1: math.NaN()}}},
		{Faults: &FaultPlan{Crashes: map[int]float64{1: 5}, Respawn: true, RebootTime: math.Inf(1)}},
	}
	for i, c := range bad {
		if _, err := NewCluster(2, c); err == nil {
			t.Errorf("case %d: invalid configuration %+v must be rejected", i, c)
		}
	}

	// The deterministic edges of the probability range need no seed (the
	// existing drop/dup tests rely on seedless prob-1 plans), and bounded
	// windows that end after they start are well formed.
	good := []Cost{
		{Faults: &FaultPlan{Links: []LinkFault{{DropProb: 1}}}},
		{Faults: &FaultPlan{Links: []LinkFault{{DupProb: 1, CorruptProb: 0}}}},
		{Faults: &FaultPlan{Seed: 3, Links: []LinkFault{{From: 1, Until: 2, DropProb: 0.25}}}},
		{Faults: &FaultPlan{Degraded: []DegradedLink{{From: 1, Until: 0, AlphaFactor: 2, BetaFactor: 2}}}},
	}
	for i, c := range good {
		if _, err := NewCluster(2, c); err != nil {
			t.Errorf("case %d: valid configuration %+v rejected: %v", i, c, err)
		}
	}
}

// seqObs records each rank's interleaved event sequence — segments, fault
// decisions and timer transitions in one list, as the bus delivers them.
// Every event lands on the bucket of the rank whose operation produced it
// (faults on the sender's), and the bus serializes one rank's callbacks, so
// the buckets need no lock.
type seqObs struct{ perRank [][]string }

func (o *seqObs) add(rank int, format string, args ...any) {
	o.perRank[rank] = append(o.perRank[rank], fmt.Sprintf(format, args...))
}
func (o *seqObs) OnCompute(rank int, seg Segment)           { o.add(rank, "seg %+v", seg) }
func (o *seqObs) OnSend(rank int, seg Segment)              { o.add(rank, "seg %+v", seg) }
func (o *seqObs) OnRecv(rank int, seg Segment)              { o.add(rank, "seg %+v", seg) }
func (o *seqObs) OnPhase(rank int, name string, at float64) { o.add(rank, "phase %s %v", name, at) }
func (o *seqObs) OnFault(ev FaultEvent)                     { o.add(ev.Src, "fault %v %+v", ev.Kind, ev) }
func (o *seqObs) OnTimer(ev TimerEvent)                     { o.add(ev.Rank, "timer %v %+v", ev.Kind, ev) }
func (o *seqObs) OnCrash(ev CrashEvent)                     { o.add(ev.Rank, "crash %+v", ev) }
func (o *seqObs) OnDeadlock(DeadlockEvent)                  {}

// TestFaultedSendEventSequencePinned pins what a faulted Send and
// SendTimeout produce, op by op: under a plan that drops, duplicates,
// corrupts and degrades, a ring of ranks alternating the two sends must
// reproduce a committed FNV-1a digest of every rank's Stats, the sum of
// the payloads it received (corrupted words included) and its interleaved
// segment/fault/timer sequence — on one worker and on four.
func TestFaultedSendEventSequencePinned(t *testing.T) {
	const p, steps = 4, 24
	const want = "349eed02e12bbab4"
	cost := Cost{GammaT: 1, BetaT: 10, AlphaT: 1000, MaxMsgWords: 3, ChargeReceiver: true}
	cost.Faults = &FaultPlan{
		Seed:     11,
		Links:    []LinkFault{{Src: -1, Dst: -1, DropProb: 0.15, DupProb: 0.25, CorruptProb: 0.3}},
		Degraded: []DegradedLink{{Src: -1, Dst: -1, From: 8000, Until: 30000, AlphaFactor: 3, BetaFactor: 2}},
	}
	for _, workers := range []int{1, 4} {
		o := &seqObs{perRank: make([][]string, p)}
		sums := make([]float64, p)
		cost.Workers = workers
		cost.Observers = []Observer{o}
		res, err := Run(p, cost, func(r *Rank) error {
			next, prev := (r.ID()+1)%p, (r.ID()+p-1)%p
			recv := func() bool {
				got, out := r.RecvTimeout(prev, 20000)
				for _, v := range got {
					sums[r.ID()] += v
				}
				return out == RecvOK
			}
			for step := 0; step < steps; step++ {
				r.Compute(float64(50 * (r.ID() + 1)))
				data := make([]float64, (step+r.ID())%5)
				for i := range data {
					data[i] = float64(100*step + i)
				}
				if step%2 == 0 {
					r.Send(next, data)
				} else if out := r.SendTimeout(next, data, 5000); out != SendOK {
					return fmt.Errorf("step %d: SendTimeout %v", step, out)
				}
				recv()
			}
			for recv() {
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		for id := range o.perRank {
			fmt.Fprintf(h, "rank %d %+v %v\n", id, res.PerRank[id], sums[id])
			for _, ev := range o.perRank[id] {
				fmt.Fprintln(h, ev)
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("workers=%d: event-sequence digest %s, want %s", workers, got, want)
		}
	}
}

// rank0Data is what rank 0 broadcasts in the collective pins below (nil on
// every other rank): words 0, 1, 2, … offset by base.
func rank0Data(r *Rank, base float64, n int) []float64 {
	if r.ID() != 0 {
		return nil
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = base + float64(i)
	}
	return data
}

// TestDropInsideCollectivePinned pins what a drop inside a collective
// does: link 1→2 drops every message, and the first it carries is the
// first ring step of the all-gather phase of the first of two BcastLarges
// rooted at 0 (their announcements and scatters never use the link), so
// rank 2's receive finds no copy and fails with a
// *MessageLostError naming the link and the collective. The failure runs
// down the ring — rank 3 receives from the failed rank 2, rank 0 from the
// failed rank 3, each with the exited-peer text a Recv gives — while rank
// 1, which depends on nobody dead, completes the first BcastLarge with the
// root's data and leaves the second, which its members never reach, with
// the orphaned-collective verdict on member 0.
func TestDropInsideCollectivePinned(t *testing.T) {
	cost := unitCost
	cost.Faults = &FaultPlan{Links: []LinkFault{{Src: 1, Dst: 2, DropProb: 1}}}
	firsts := make([][]float64, 4)
	for _, workers := range []int{1, 4} {
		cost.Workers = workers
		_, err := Run(4, cost, func(r *Rank) error {
			w := r.World()
			firsts[r.ID()] = w.BcastLarge(0, rank0Data(r, 10, 4))
			w.BcastLarge(0, rank0Data(r, 20, 4))
			return nil
		})
		var lost *MessageLostError
		if !errors.As(err, &lost) || *lost != (MessageLostError{Rank: 2, Peer: 1, Op: "BcastLarge"}) {
			t.Fatalf("workers=%d: error %v, want one wrapping rank 2's lost message from rank 1 inside BcastLarge", workers, err)
		}
		const r2 = "sim: rank 2 panicked: sim: rank 2 lost the message from rank 1 inside BcastLarge (dropped by the fault plan)"
		const r3 = "sim: rank 3 panicked: sim: rank 3 receiving from rank 2, which failed (cascade; root cause: " + r2 + ")"
		const r0 = "sim: rank 0 panicked: sim: rank 0 receiving from rank 3, which failed (cascade; root cause: " + r3 + ")"
		const r1 = "sim: rank 1 panicked: sim: rank 1 receiving from rank 0, which failed (cascade; root cause: " + r0 + ")"
		if want := "rank 0: " + r0 + "\nrank 1: " + r1 + "\nrank 2: " + r2 + "\nrank 3: " + r3; err.Error() != want {
			t.Errorf("workers=%d: error text\n%s\nwant\n%s", workers, err, want)
		}
		if want := []float64{10, 11, 12, 13}; !slices.Equal(firsts[1], want) {
			t.Errorf("workers=%d: rank 1 read %v, want %v", workers, firsts[1], want)
		}
		for _, id := range []int{0, 2, 3} {
			if firsts[id] != nil {
				t.Errorf("workers=%d: rank %d failed inside the first BcastLarge but returned %v", workers, id, firsts[id])
			}
		}
		clear(firsts)
	}
}

// TestDupInsideCollectiveAbsorbed pins the other half of the collective
// model: a duplicated message inside a collective delivers its first copy
// and the second is absorbed. Link 1→2 duplicates every message of the
// all-gather rings of two BcastLarges rooted at 0; every rank reads the
// root's data, every such send emits a FaultDup, and the Stats are the
// fault-free run's — the sender paid each send once, and the receiver
// received each message once.
func TestDupInsideCollectiveAbsorbed(t *testing.T) {
	prog := func(got [][]float64) func(r *Rank) error {
		return func(r *Rank) error {
			w := r.World()
			got[r.ID()] = append(w.BcastLarge(0, rank0Data(r, 10, 4)), w.BcastLarge(0, rank0Data(r, 20, 8))...)
			return nil
		}
	}
	clean, err := Run(4, unitCost, prog(make([][]float64, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cost := unitCost
		cost.Workers = workers
		cost.Faults = &FaultPlan{Links: []LinkFault{{Src: 1, Dst: 2, DupProb: 1}}}
		o := newRecObs()
		cost.Observers = []Observer{o}
		got := make([][]float64, 4)
		res, err := Run(4, cost, prog(got))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := []float64{10, 11, 12, 13, 20, 21, 22, 23, 24, 25, 26, 27}
		for id := range got {
			if !slices.Equal(got[id], want) {
				t.Errorf("workers=%d: rank %d read %v, want %v", workers, id, got[id], want)
			}
		}
		dups := 0
		for _, ev := range o.faults {
			if ev.Kind == FaultDup && ev.Src == 1 && ev.Dst == 2 {
				dups++
			}
		}
		if len(o.faults) != 6 || dups != 6 {
			t.Errorf("workers=%d: fault events %+v, want one FaultDup per 1→2 ring step (6)", workers, o.faults)
		}
		requireSameResult(t, "fault-free", clean, fmt.Sprintf("duplicating, workers=%d", workers), res)
	}
}

// TestHardCrashInsideCollectivePropagates pins how a hard crash inside a
// conducted Bcast reaches the members that depend on the dead one. On 8
// ranks rooted at 0 (tree 0→{4,2,1}, 4→{6,5}, 2→3, 6→7), rank 4's crash
// fires at its receive from the root: ranks 6 and 5 fail receiving from a
// crashed rank, rank 7 from the failed rank 6, and every other rank gets
// the data. The conductor records each failure in whichever worker
// conducts, and the member panics with it on its own, so the outcome must
// not depend on the worker count.
func TestHardCrashInsideCollectivePropagates(t *testing.T) {
	const crash = "sim: rank 4 crashed at injected fault (t=50)"
	const r6 = "sim: rank 6 panicked: sim: rank 6 receiving from rank 4, which crashed (root cause: " + crash + ")"
	const r5 = "sim: rank 5 panicked: sim: rank 5 receiving from rank 4, which crashed (root cause: " + crash + ")"
	const r7 = "sim: rank 7 panicked: sim: rank 7 receiving from rank 6, which failed (cascade; root cause: " + r6 + ")"
	want := "rank 4: " + crash + "\nrank 5: " + r5 + "\nrank 6: " + r6 + "\nrank 7: " + r7
	for _, workers := range []int{1, 2, 4} {
		cost := unitCost
		cost.Workers = workers
		cost.Faults = &FaultPlan{Crashes: map[int]float64{4: 50}}
		got := make([][]float64, 8)
		_, err := Run(8, cost, func(r *Rank) error {
			r.Compute(float64(10 * (r.ID() + 1)))
			got[r.ID()] = r.World().Bcast(0, []float64{7, 8})
			return nil
		})
		var ce *CrashError
		if !errors.As(err, &ce) || ce.Rank != 4 {
			t.Fatalf("workers=%d: error %v, want one wrapping rank 4's CrashError", workers, err)
		}
		if err.Error() != want {
			t.Errorf("workers=%d: error text\n%s\nwant\n%s", workers, err, want)
		}
		for id, v := range got {
			if failed := id >= 4; failed != (v == nil) || !failed && !slices.Equal(v, []float64{7, 8}) {
				t.Errorf("workers=%d: rank %d returned %v", workers, id, v)
			}
		}
	}
}

// TestFaultPlanStatsByteIdentical pins the determinism guarantee: the same
// seed and plan reproduce the exact same Stats, bit for bit, across runs.
func TestFaultPlanStatsByteIdentical(t *testing.T) {
	plan := &FaultPlan{
		Seed:       7,
		Crashes:    map[int]float64{1: 5000},
		Respawn:    true,
		RebootTime: 3,
		Links:      []LinkFault{{Src: -1, Dst: -1, DupProb: 0.3, CorruptProb: 0.2}},
		Degraded:   []DegradedLink{{Src: -1, Dst: -1, From: 2000, AlphaFactor: 2, BetaFactor: 3}},
	}
	run := func() []Stats {
		cost := unitCost
		cost.Faults = plan
		res, err := Run(4, cost, func(r *Rank) error {
			w := r.World()
			data := []float64{float64(r.ID()), 1, 2}
			for step := 0; step < 5; step++ {
				r.Compute(500)
				data = w.Shift(data, 1)
				r.TakeCrashed() // consume, keep running
			}
			w.AllReduce(nil, OpSum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerRank
	}
	a, b := run(), run()
	for id := range a {
		if a[id] != b[id] {
			t.Errorf("rank %d stats differ across identical runs:\n%+v\n%+v", id, a[id], b[id])
		}
	}
}
