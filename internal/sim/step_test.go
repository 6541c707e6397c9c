package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestStacklessFullQueueSend: with one-message pair buffers, a stepper
// that sends three messages before its peer receives is refused by the
// full queue, keeps the priced message, and finishes with its closure
// twin's Stats — each send priced once — and payloads.
func TestStacklessFullQueueSend(t *testing.T) {
	for _, w := range []int{1, 4} {
		cost := unitCost
		cost.ChanCap, cost.Workers = 1, w
		var refused atomic.Int32
		got := make([]float64, 0, 3)
		res, ref, stepErr, closureErr := runTwins(2, cost, func(id int) []func(r *Rank) bool {
			var acts []func(r *Rank) bool
			for i := 1; i <= 3; i++ {
				if id == 0 {
					acts = append(acts, func(r *Rank) bool {
						ok := r.TrySend(1, []float64{float64(i)})
						if !ok {
							refused.Add(1)
						}
						return ok
					})
					continue
				}
				acts = append(acts, func(r *Rank) bool {
					v, ok := r.TryRecv(0)
					if ok {
						got = append(got, v[0])
					}
					return ok
				})
			}
			return acts
		}, func(r *Rank) error {
			for i := 1; i <= 3; i++ {
				if r.ID() == 0 {
					r.Send(1, []float64{float64(i)})
				} else {
					r.Recv(0)
				}
			}
			return nil
		})
		if stepErr != nil || closureErr != nil {
			t.Fatalf("workers=%d: %v / %v", w, stepErr, closureErr)
		}
		requireSameResult(t, "stepper", res, "closure", ref)
		if refused.Load() == 0 {
			t.Errorf("workers=%d: no send met a full queue; the test exercises nothing", w)
		}
		if fmt.Sprint(got) != "[1 2 3]" {
			t.Errorf("workers=%d: received %v, want [1 2 3]", w, got)
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
// fails the stepped rank loudly instead of parking a stack it does not have.
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
				func(r *Rank) bool { _, ok := world.TryReduceLarge(it, buf[:1], OpMax); return ok },
				func(r *Rank) bool { r.Compute(float64(id + it)); return r.TrySend(id^1, buf[:it+1]) },
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
			world.ReduceLarge(it, buf[:1], OpMax)
			r.Compute(float64(id + it))
			r.Send(id^1, buf[:it+1])
			r.Recv(id ^ 1)
		}
		return nil
	}
}

// TestStacklessTourMatchesClosure holds the Try operations to their
// blocking twins bit for bit — per-rank Stats, ActivePairs and observer
// streams — stackless at 1, 2 and 4 workers, with and without a cancel
// context, and carried under an empty fault plan. Under -race it is the
// check that a rendezvous arrival's wait is recorded under the arrival's
// lock hold and that a wake landing mid-Step is neither lost nor
// dispatched twice (script.busy).
func TestStacklessTourMatchesClosure(t *testing.T) {
	const p, rows = 24, 4
	run := func(cost Cost, stepped bool) (*Result, *recObs) {
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
			t.Fatalf("stepped=%v: %v", stepped, err)
		}
		return res, obs
	}
	cost := unitCost
	cost.ChanCap = 2
	ref, refObs := run(cost, false)
	for _, w := range []int{1, 2, 4} {
		for _, ctx := range []context.Context{nil, context.Background()} {
			c := cost
			c.Workers, c.Context = w, ctx
			res, obs := run(c, true)
			name := fmt.Sprintf("stackless workers=%d context=%v", w, ctx != nil)
			requireSameResult(t, "closure", ref, name, res)
			if !sameStreams(refObs, obs, p) {
				t.Errorf("%s: observer streams differ from the closure's", name)
			}
		}
	}
	cost.Faults = &FaultPlan{}
	carriedRef, _ := run(cost, false)
	carried, _ := run(cost, true)
	requireSameResult(t, "closure", carriedRef, "carried", carried)
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
		cost.ChanCap, cost.Workers = 1, 2
		var failed, landed atomic.Bool
		if _, err := RunSteps(2, cost, scripted(prog(&failed, &landed))); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
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

// TestStacklessNoCarriers: a stackless run spawns no carrier goroutine and
// allocates no resume channel.
func TestStacklessNoCarriers(t *testing.T) {
	c, err := NewCluster(64, unitCost)
	if err != nil {
		t.Fatal(err)
	}
	var stacks atomic.Value
	_, err = c.RunSteps(scripted(func(id int) []func(r *Rank) bool {
		return []func(r *Rank) bool{
			func(r *Rank) bool {
				_, ok := r.World().TryReduceLarge(0, make([]float64, 64), OpSum)
				return ok
			},
			func(r *Rank) bool {
				if id == 0 {
					buf := make([]byte, 1<<20)
					stacks.Store(string(buf[:runtime.Stack(buf, true)]))
				}
				return true
			},
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := stacks.Load().(string); s == "" || strings.Contains(s, "(*eventEngine).carrier") {
		t.Errorf("carrier goroutines during a stackless run:\n%.2000s", s)
	}
	for id := range c.eng.ranks {
		if c.eng.ranks[id].resume != nil {
			t.Fatalf("rank %d has a resume channel", id)
		}
	}
}
