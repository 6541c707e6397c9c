package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// script is a test Stepper: actions run in order, each reporting false
// when its Try call must wait, in which case the next Step repeats it. busy
// catches two workers stepping one rank at once.
type script struct {
	acts []func(r *Rank) bool
	pc   int
	busy atomic.Bool
}

func (s *script) Step(r *Rank) (bool, error) {
	if !s.busy.CompareAndSwap(false, true) {
		panic("two workers stepped one rank at once")
	}
	defer s.busy.Store(false)
	for ; s.pc < len(s.acts); s.pc++ {
		if !s.acts[s.pc](r) {
			return false, nil
		}
	}
	return true, nil
}

// scripted returns RunSteps' start function for per-rank action lists.
func scripted(acts func(id int) []func(r *Rank) bool) func(id int) Stepper {
	return func(id int) Stepper { return &script{acts: acts(id)} }
}

// runTwins runs a Stepper program and its closure twin on the same cost and
// returns both outcomes.
func runTwins(p int, cost Cost, acts func(id int) []func(r *Rank) bool, closure func(r *Rank) error) (stepped, carried *Result, stepErr, closureErr error) {
	stepped, stepErr = RunSteps(p, cost, scripted(acts))
	carried, closureErr = Run(p, cost, closure)
	return
}

// requireSameError fails unless both runs failed with the same text.
func requireSameError(t *testing.T, stepErr, closureErr error) {
	t.Helper()
	if stepErr == nil || closureErr == nil || stepErr.Error() != closureErr.Error() {
		t.Fatalf("verdicts differ:\n  stepper: %v\n  closure: %v", stepErr, closureErr)
	}
}

// TestStacklessRecvFromExitedPeer: a stepper receiving from a peer that
// exits without sending fails with its closure twin's text.
func TestStacklessRecvFromExitedPeer(t *testing.T) {
	for _, w := range []int{1, 4} {
		cost := unitCost
		cost.Workers = w
		_, _, stepErr, closureErr := runTwins(2, cost, func(id int) []func(r *Rank) bool {
			if id == 1 {
				return nil
			}
			return []func(r *Rank) bool{func(r *Rank) bool { _, ok := r.TryRecv(1); return ok }}
		}, func(r *Rank) error {
			if r.ID() == 0 {
				r.Recv(1)
			}
			return nil
		})
		requireSameError(t, stepErr, closureErr)
		if !strings.Contains(stepErr.Error(), "which exited without sending") {
			t.Errorf("workers=%d: exit cause not named: %v", w, stepErr)
		}
	}
}

// TestStacklessMutualRecvDeadlock: two steppers receiving from each other
// end in their closure twins' deadlock verdict, text and snapshot alike.
func TestStacklessMutualRecvDeadlock(t *testing.T) {
	for _, w := range []int{1, 4} {
		cost := unitCost
		cost.Workers = w
		_, _, stepErr, closureErr := runTwins(2, cost, func(id int) []func(r *Rank) bool {
			return []func(r *Rank) bool{
				func(r *Rank) bool { r.Compute(float64(id + 1)); return true },
				func(r *Rank) bool { _, ok := r.TryRecv(1 - id); return ok },
			}
		}, func(r *Rank) error {
			r.Compute(float64(r.ID() + 1))
			r.Recv(1 - r.ID())
			return nil
		})
		requireSameError(t, stepErr, closureErr)
		var a, b *DeadlockError
		if !errors.As(stepErr, &a) || !errors.As(closureErr, &b) || a.Snapshot.String() != b.Snapshot.String() {
			t.Errorf("workers=%d: want matching DeadlockError snapshots, got %v and %v", w, stepErr, closureErr)
		}
	}
}

// TestStacklessFullQueueSend: with one-message pair buffers, a stepper that
// sends three messages to a peer that holds off receiving until a send was
// refused meets the full queue, keeps what it has not pushed, and finishes
// with its closure twin's Stats, payloads and observer streams, fault
// events included: each send is priced and its fates rolled once. Under
// DupProb 1 each send has two copies and the refused one is the primary,
// which the repeat pushes; under DropProb 1 no copy is delivered, no send
// waits, and the peer receives nothing.
func TestStacklessFullQueueSend(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   *FaultPlan
		copies int
		want   string
	}{
		{"fault-free", nil, 1, "[1 2 3]"},
		{"duplicate", &FaultPlan{Links: []LinkFault{{Src: -1, Dst: -1, DupProb: 1}}}, 2, "[1 1 2 2 3 3]"},
		{"drop", &FaultPlan{Links: []LinkFault{{Src: -1, Dst: -1, DropProb: 1}}}, 0, "[]"},
	} {
		for _, w := range []int{1, 4} {
			cost := unitCost
			cost.chanCap, cost.Workers, cost.Faults = 1, w, tc.plan
			var refused atomic.Int32
			got := []float64{}
			stepObs, closureObs := newRecObs(), newRecObs()
			cost.Observers = []Observer{stepObs}
			res, stepErr := RunSteps(2, cost, scripted(func(id int) []func(r *Rank) bool {
				var acts []func(r *Rank) bool
				if id == 0 {
					for i := 1; i <= 3; i++ {
						acts = append(acts, func(r *Rank) bool {
							ok := r.TrySend(1, []float64{float64(i)})
							if !ok {
								refused.Add(1)
							}
							return ok
						})
					}
					return acts
				}
				if tc.copies > 0 {
					// Yield, recording no wait, until a send was refused.
					acts = append(acts, func(*Rank) bool { return refused.Load() > 0 })
				}
				for i := 0; i < 3*tc.copies; i++ {
					acts = append(acts, func(r *Rank) bool {
						v, ok := r.TryRecv(0)
						if ok {
							got = append(got, v[0])
						}
						return ok
					})
				}
				return acts
			}))
			cost.Observers = []Observer{closureObs}
			ref, closureErr := Run(2, cost, func(r *Rank) error {
				for i := 1; i <= 3; i++ {
					if r.ID() == 0 {
						r.Send(1, []float64{float64(i)})
					}
				}
				for i := 0; r.ID() == 1 && i < 3*tc.copies; i++ {
					r.Recv(0)
				}
				return nil
			})
			name := fmt.Sprintf("%s workers=%d", tc.name, w)
			if stepErr != nil || closureErr != nil {
				t.Fatalf("%s: %v / %v", name, stepErr, closureErr)
			}
			requireSameResult(t, "stepper", res, "closure", ref)
			if !sameStreams(stepObs, closureObs, 2) || !sameFaults(stepObs, closureObs, 2) {
				t.Errorf("%s: observer streams differ from the closure's", name)
			}
			if tc.copies > 0 && refused.Load() == 0 {
				t.Errorf("%s: no send met a full queue; the test exercises nothing", name)
			}
			if fmt.Sprint(got) != tc.want {
				t.Errorf("%s: received %v, want %s", name, got, tc.want)
			}
		}
	}
}

// TestStacklessPanic: a panic inside Step is reported like a closure's.
func TestStacklessPanic(t *testing.T) {
	_, _, stepErr, closureErr := runTwins(3, unitCost, func(id int) []func(r *Rank) bool {
		return []func(r *Rank) bool{func(r *Rank) bool {
			if id == 1 {
				panic("boom")
			}
			return true
		}}
	}, func(r *Rank) error {
		if r.ID() == 1 {
			panic("boom")
		}
		return nil
	})
	requireSameError(t, stepErr, closureErr)
	if !strings.Contains(stepErr.Error(), "sim: rank 1 panicked: boom") {
		t.Errorf("panic not named: %v", stepErr)
	}
}

// TestStacklessBlockingOpRefused: a blocking operation that would wait
// fails the stepped rank loudly instead of parking a stack it does not
// have.
func TestStacklessBlockingOpRefused(t *testing.T) {
	_, err := RunSteps(2, unitCost, scripted(func(id int) []func(r *Rank) bool {
		if id == 1 {
			return []func(r *Rank) bool{func(r *Rank) bool { _, ok := r.TryRecv(0); return ok }}
		}
		return []func(r *Rank) bool{func(r *Rank) bool { r.Recv(1); return true }}
	}))
	if err == nil || !strings.Contains(err.Error(), "must not block") {
		t.Fatalf("want the blocking-op panic, got %v", err)
	}
}

// stepTour is a stepped program over every Try operation: shifts on the
// world and on row communicators, both broadcast paths (chunked, and the
// binomial fallback of a one-word payload) from varying roots, both
// reduction paths, and point-to-point exchanges with the fiber partner.
// tourClosure is its closure twin.
func stepTour(p, rows int) func(id int) []func(r *Rank) bool {
	return func(id int) []func(r *Rank) bool {
		var world, row *Comm
		var buf, res []float64
		acts := []func(r *Rank) bool{func(r *Rank) bool {
			world = r.World()
			members := make([]int, 0, p/rows)
			for m := id % rows; m < p; m += rows {
				members = append(members, m)
			}
			var err error
			if row, err = r.NewComm(members); err != nil {
				panic(err)
			}
			buf = make([]float64, 2*p)
			for i := range buf {
				buf[i] = float64(id*100 + i)
			}
			return true
		}}
		for it := 0; it < 3; it++ {
			acts = append(acts,
				func(r *Rank) bool {
					v, ok := world.TryShiftOwned(private(buf), it+1)
					if ok {
						buf = v
					}
					return ok
				},
				func(r *Rank) bool {
					var data []float64
					if row.Me() == it%row.Size() {
						data = buf
					}
					v, ok := row.TryBcastLargeInto(res, it%row.Size(), data)
					if ok {
						res = v
					}
					return ok
				},
				func(r *Rank) bool {
					var data []float64
					if world.Me() == it {
						data = []float64{float64(it)}
					}
					_, ok := world.TryBcastLargeInto(nil, it, data)
					return ok
				},
				func(r *Rank) bool { _, ok := row.TryReduceLarge(0, res, OpSum); return ok },
				func(r *Rank) bool { _, ok := world.TryReduceLarge(it, buf[:1], opMax); return ok },
				func(r *Rank) bool { r.Compute(float64(id + it)); return true },
				func(r *Rank) bool { return r.TrySend(id^1, buf[:it+1]) },
				func(r *Rank) bool { _, ok := r.TryRecv(id ^ 1); return ok },
			)
		}
		return acts
	}
}

func tourClosure(p, rows int) func(r *Rank) error {
	return func(r *Rank) error {
		id := r.ID()
		world := r.World()
		members := make([]int, 0, p/rows)
		for m := id % rows; m < p; m += rows {
			members = append(members, m)
		}
		row, err := r.NewComm(members)
		if err != nil {
			return err
		}
		buf := make([]float64, 2*p)
		for i := range buf {
			buf[i] = float64(id*100 + i)
		}
		var res []float64
		for it := 0; it < 3; it++ {
			buf = world.ShiftOwned(private(buf), it+1)
			var data []float64
			if row.Me() == it%row.Size() {
				data = buf
			}
			res = row.BcastLargeInto(res, it%row.Size(), data)
			data = nil
			if world.Me() == it {
				data = []float64{float64(it)}
			}
			world.BcastLargeInto(nil, it, data)
			row.ReduceLarge(0, res, OpSum)
			world.ReduceLarge(it, buf[:1], opMax)
			r.Compute(float64(id + it))
			r.Send(id^1, buf[:it+1])
			r.Recv(id ^ 1)
		}
		return nil
	}
}

// tourPlans are the fault plans the stackless tour is held to its closure
// twin under: none, the empty plan, a degraded window, corruption, a
// duplicate of every rank's last send (its point-to-point send to its
// fiber partner), seeded duplicates on every link (they shift the tour's
// own message matching, and a collective fed a stale block of the wrong
// length fails every member with the conduct's panic, whichever member
// conducts it), a drop on one link, and a respawn and a hard crash of rank
// victim at every sixteenth clock its fault-free run (clean) passes
// through.
func tourPlans(clean *recObs, p, victim int) map[string]*FaultPlan {
	dup := &FaultPlan{}
	for id := 0; id < p; id++ {
		segs := clean.segs[id]
		last := segs[len(segs)-1]
		for i := len(segs) - 1; last.Kind != SegSend; i-- {
			last = segs[i]
		}
		dup.Links = append(dup.Links, LinkFault{Src: id, Dst: id ^ 1, DupProb: 1, From: last.Start})
	}
	plans := map[string]*FaultPlan{
		"fault-free": nil,
		"empty":      {},
		"degraded":   {Degraded: []DegradedLink{{Src: -1, Dst: -1, From: 2000, Until: 9000, AlphaFactor: 3, BetaFactor: 2}}},
		"corrupt":    {Seed: 5, Links: []LinkFault{{Src: -1, Dst: -1, CorruptProb: 0.5}}},
		"duplicate":  dup,
		"dup-all":    {Seed: 6, Links: []LinkFault{{Src: -1, Dst: -1, DupProb: 0.5}}},
		"drop":       {Links: []LinkFault{{Src: victim, Dst: victim ^ 1, DropProb: 1}}},
	}
	for i, s := range clean.segs[victim] {
		if i%16 == 0 {
			plans[fmt.Sprintf("respawn at t=%g", s.Start)] = &FaultPlan{Crashes: map[int]float64{victim: s.Start}, Respawn: true, RebootTime: 7}
			plans[fmt.Sprintf("hard crash at t=%g", s.Start)] = &FaultPlan{Crashes: map[int]float64{victim: s.Start}}
		}
	}
	return plans
}

// TestStacklessTourMatchesClosure holds the Try operations to their
// blocking twins bit for bit — per-rank Stats, ActivePairs, observer
// streams and error text — at 1, 2 and 4 workers with and without a cancel
// context, and at 1 and 4 workers under every plan of tourPlans. Under
// -race it is the check that a rendezvous arrival's wait is recorded under
// the arrival's lock hold and that a wake landing mid-Step is neither lost
// nor dispatched twice (script.busy).
func TestStacklessTourMatchesClosure(t *testing.T) {
	const p, rows, victim = 24, 4, 5
	run := func(cost Cost, stepped bool) (*Result, *recObs, string) {
		t.Helper()
		obs := newRecObs()
		cost.Observers = []Observer{obs}
		var res *Result
		var err error
		if stepped {
			res, err = RunSteps(p, cost, scripted(stepTour(p, rows)))
		} else {
			res, err = Run(p, cost, tourClosure(p, rows))
		}
		if err != nil {
			return res, obs, err.Error()
		}
		return res, obs, ""
	}
	compare := func(name string, cost Cost, complete bool) {
		t.Helper()
		ref, refObs, refErr := run(cost, false)
		res, obs, err := run(cost, true)
		if err != refErr {
			t.Fatalf("%s: error text differs\n  stepper: %s\n  closure: %s", name, err, refErr)
		}
		if complete && err != "" {
			t.Fatalf("%s: tour must complete: %s", name, err)
		}
		requireSameResult(t, "closure", ref, name, res)
		if !sameStreams(refObs, obs, p) || !sameFaults(refObs, obs, p) {
			t.Errorf("%s: observer streams differ from the closure's", name)
		}
	}
	cost := unitCost
	cost.chanCap = 2
	for _, w := range []int{1, 2, 4} {
		for _, ctx := range []context.Context{nil, context.Background()} {
			c := cost
			c.Workers, c.Context = w, ctx
			compare(fmt.Sprintf("workers=%d context=%v", w, ctx != nil), c, true)
		}
	}
	_, clean, _ := run(cost, false)
	for name, plan := range tourPlans(clean, p, victim) {
		for _, w := range []int{1, 4} {
			c := cost
			c.Workers, c.Faults = w, plan
			compare(fmt.Sprintf("%s workers=%d", name, w), c, !strings.Contains(name, "crash") && name != "drop" && !strings.HasPrefix(name, "dup"))
		}
	}
}

// sameStreams compares two recorders' per-rank segment streams.
func sameStreams(a, b *recObs, p int) bool {
	for id := 0; id < p; id++ {
		if fmt.Sprint(a.segs[id]) != fmt.Sprint(b.segs[id]) {
			return false
		}
	}
	return true
}

// sameFaults compares two recorders' fault events rank by rank: each
// sender's in the order it emitted them.
func sameFaults(a, b *recObs, p int) bool {
	for id := 0; id < p; id++ {
		bySrc := func(o *recObs) string {
			var evs []FaultEvent
			for _, ev := range o.faults {
				if ev.Src == id {
					evs = append(evs, ev)
				}
			}
			return fmt.Sprint(evs)
		}
		if bySrc(a) != bySrc(b) {
			return false
		}
	}
	return true
}

// TestStacklessWakeMidStep makes the wake a parked rank waits for land
// while its Step is still returning — the peer sends, drains the full
// queue, or conducts the collective after the Try call failed and before
// the worker records the wait — and requires the worker's re-check under
// mu to see it: a lost wake ends the run in a deadlock verdict, a double
// dispatch trips script.busy. Each rank spins (yielding the processor) on
// the other's progress, so two workers are needed and suffice.
func TestStacklessWakeMidStep(t *testing.T) {
	spinUntil := func(f *atomic.Bool) {
		for !f.Load() {
			runtime.Gosched()
		}
	}
	// failOnce wraps a Try call: on its first failure it announces the wait
	// (failed) and holds the Step until the peer's action has landed.
	failOnce := func(try func(r *Rank) bool, failed, landed *atomic.Bool) func(r *Rank) bool {
		return func(r *Rank) bool {
			if try(r) {
				return true
			}
			if !failed.Swap(true) {
				spinUntil(landed)
			}
			return false
		}
	}
	recv := func(src int) func(r *Rank) bool {
		return func(r *Rank) bool { _, ok := r.TryRecv(src); return ok }
	}
	send := func(dst int) func(r *Rank) bool {
		return func(r *Rank) bool { return r.TrySend(dst, []float64{1}) }
	}
	then := func(act func(r *Rank) bool, flag *atomic.Bool) func(r *Rank) bool {
		return func(r *Rank) bool {
			if !act(r) {
				return false
			}
			flag.Store(true)
			return true
		}
	}
	wait := func(flag *atomic.Bool) func(r *Rank) bool {
		return func(*Rank) bool { spinUntil(flag); return true }
	}
	bcast := func(r *Rank) bool {
		_, ok := r.World().TryBcastLargeInto(nil, 0, []float64{1, 2})
		return ok
	}
	for name, prog := range map[string]func(failed, landed *atomic.Bool) func(id int) []func(r *Rank) bool{
		"message": func(failed, landed *atomic.Bool) func(id int) []func(r *Rank) bool {
			return func(id int) []func(r *Rank) bool {
				if id == 1 {
					return []func(r *Rank) bool{failOnce(recv(0), failed, landed), send(0)}
				}
				return []func(r *Rank) bool{wait(failed), then(send(1), landed), recv(1)}
			}
		},
		"space": func(failed, landed *atomic.Bool) func(id int) []func(r *Rank) bool {
			return func(id int) []func(r *Rank) bool {
				if id == 1 {
					return []func(r *Rank) bool{send(0), failOnce(send(0), failed, landed), recv(0)}
				}
				return []func(r *Rank) bool{wait(failed), then(recv(1), landed), recv(1), send(1)}
			}
		},
		"collective": func(failed, landed *atomic.Bool) func(id int) []func(r *Rank) bool {
			return func(id int) []func(r *Rank) bool {
				if id == 1 {
					return []func(r *Rank) bool{failOnce(bcast, failed, landed), send(0)}
				}
				return []func(r *Rank) bool{wait(failed), then(bcast, landed), recv(1)}
			}
		},
	} {
		cost := unitCost
		cost.chanCap, cost.Workers = 1, 2
		var failed, landed atomic.Bool
		if _, err := RunSteps(2, cost, scripted(prog(&failed, &landed))); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSteppedWakeRunsNext pins the stackless run queue's policy: a woken
// Stepper runs next, ahead of ranks queued before the wake. At one worker
// rank 3 (first off the descending initial fill) parks receiving from rank
// 2, whose TrySend wakes it while ranks 1 and 0 still wait their first
// Step; rank 3's second Step must come straight after rank 2's.
func TestSteppedWakeRunsNext(t *testing.T) {
	const a, b = 2, 3
	var log []int
	cost := unitCost
	cost.Workers = 1
	_, err := RunSteps(4, cost, func(id int) Stepper {
		var acts []func(r *Rank) bool
		switch id {
		case a:
			acts = append(acts, func(r *Rank) bool { return r.TrySend(b, []float64{1}) })
		case b:
			acts = append(acts, func(r *Rank) bool { _, ok := r.TryRecv(a); return ok })
		}
		return recording{&script{acts: acts}, &log}
	})
	if err != nil {
		t.Fatal(err)
	}
	i := slices.Index(log, a)
	if slices.Index(log, b) > i || slices.Index(log, 1) < i || slices.Index(log, 0) < i {
		t.Fatalf("steps %v: rank %d must park before rank %d sends, with ranks 1 and 0 still queued; the test exercises nothing", log, b, a)
	}
	if i+1 >= len(log) || log[i+1] != b {
		t.Errorf("steps %v: the woken rank %d must step right after rank %d, ahead of ranks 1 and 0", log, b, a)
	}
}

// recording is a Stepper that logs its rank's id at each Step.
type recording struct {
	*script
	log *[]int
}

func (x recording) Step(r *Rank) (bool, error) {
	*x.log = append(*x.log, r.ID())
	return x.script.Step(r)
}

// TestStacklessComputeNeverYields: Compute on a stepped rank never calls
// yieldIfBehind, which would park a stack the rank does not have. One
// worker and clocks that fall behind the queue head make a carried rank
// yield on its 256th Compute; a stepped one runs on.
func TestStacklessComputeNeverYields(t *testing.T) {
	cost := unitCost
	cost.Workers = 1
	done := make(chan error, 1)
	go func() {
		_, err := RunSteps(4, cost, scripted(func(id int) []func(r *Rank) bool {
			return []func(r *Rank) bool{func(r *Rank) bool {
				for i := 0; i < 1024; i++ {
					r.Compute(1)
				}
				return true
			}}
		}))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a stepped compute loop wedged the run")
	}
}

// TestStacklessNoCarriers: a Stepper run creates no coroutine, without a
// fault plan and under one: the empty plan, and a plan that degrades,
// corrupts, duplicates and drops (on a link the program leaves unused) yet
// completes. Every rank's record says so, and a stack dump taken mid-run
// shows no rank stack; the same dump taken inside a closure run does.
func TestStacklessNoCarriers(t *testing.T) {
	const p = 64
	dump := func() string {
		buf := make([]byte, 1<<20)
		return string(buf[:runtime.Stack(buf, true)])
	}
	const marker = "(*coRank).Step"
	var inClosure string
	if _, err := Run(2, unitCost, func(r *Rank) error {
		if r.ID() == 0 {
			r.Recv(1)
			inClosure = dump() // rank 1 is parked in its Recv from 0
			r.Send(1, nil)
		} else {
			r.Send(0, nil)
			r.Recv(0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inClosure, marker) {
		t.Fatalf("a closure run's dump shows no rank stack; the check below would see nothing:\n%.2000s", inClosure)
	}
	for name, plan := range map[string]*FaultPlan{
		"fault-free": nil,
		"empty":      {},
		"faulted": {Seed: 3, Links: []LinkFault{{Src: -1, Dst: -1, CorruptProb: 0.5, DupProb: 0.5}, {Src: 0, Dst: 0, DropProb: 1}},
			Degraded: []DegradedLink{{Src: -1, Dst: -1, AlphaFactor: 2, BetaFactor: 3}}},
	} {
		cost := unitCost
		cost.Faults = plan
		var stacks atomic.Value
		var coroutines atomic.Int32
		_, err := RunSteps(p, cost, scripted(func(id int) []func(r *Rank) bool {
			return []func(r *Rank) bool{
				func(r *Rank) bool {
					_, ok := r.World().TryReduceLarge(0, make([]float64, p), OpSum)
					return ok
				},
				func(r *Rank) bool { return r.TrySend((id+1)%p, []float64{1, 2}) },
				func(r *Rank) bool { _, ok := r.TryRecv((id + p - 1) % p); return ok },
				func(r *Rank) bool {
					if r.step.co != nil {
						coroutines.Add(1)
					}
					if id == 0 {
						stacks.Store(dump())
					}
					return true
				},
			}
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := coroutines.Load(); n != 0 {
			t.Errorf("%s: %d stepped ranks hold a coroutine", name, n)
		}
		if s, _ := stacks.Load().(string); s == "" || strings.Contains(s, marker) {
			t.Errorf("%s: rank stacks during a stackless run:\n%.2000s", name, s)
		}
	}
}

// TestTryFormOnClosureRefused: each Try form called from a closure fails
// the rank by name instead of dereferencing a record it does not have.
func TestTryFormOnClosureRefused(t *testing.T) {
	for name, try := range map[string]func(r *Rank){
		"TrySend":           func(r *Rank) { r.TrySend(1-r.ID(), []float64{1}) },
		"TryRecv":           func(r *Rank) { r.TryRecv(1 - r.ID()) },
		"TryShiftOwned":     func(r *Rank) { r.World().TryShiftOwned([]float64{1}, 1) },
		"TryBcastLargeInto": func(r *Rank) { r.World().TryBcastLargeInto(nil, 0, []float64{1, 2}) },
		"TryReduceLarge":    func(r *Rank) { r.World().TryReduceLarge(0, []float64{1, 2}, OpSum) },
	} {
		_, err := Run(2, unitCost, func(r *Rank) error { try(r); return nil })
		if err == nil || !strings.Contains(err.Error(), "rank 0 is not a Stepper: the Try forms run only under RunSteps") {
			t.Errorf("%s on a closure: got %v", name, err)
		}
	}
}
