package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// actMode is how the wiring programs' actions run: through the
// member-by-member oracle (closures only), the blocking operations
// (closures), or the Try forms (Steppers).
type actMode uint8

const (
	viaOracle actMode = iota
	viaBlocking
	viaTry
)

// asClosure runs an action list as a blocking program; its actions never
// fail.
func asClosure(acts func(id int) []func(r *Rank) bool) func(r *Rank) error {
	return func(r *Rank) error {
		for _, act := range acts(r.ID()) {
			act(r)
		}
		return nil
	}
}

// Actions of the wiring programs below, in each mode.
func actCompute(f float64) func(r *Rank) bool {
	return func(r *Rank) bool { r.Compute(f); return true }
}

func actSend(m actMode, dst int, data ...float64) func(r *Rank) bool {
	return func(r *Rank) bool {
		if m != viaTry {
			r.Send(dst, data)
			return true
		}
		return r.TrySend(dst, data)
	}
}

func actRecv(m actMode, src int) func(r *Rank) bool {
	return func(r *Rank) bool {
		if m != viaTry {
			r.Recv(src)
			return true
		}
		_, ok := r.TryRecv(src)
		return ok
	}
}

func actBcastLarge(m actMode, root int) func(r *Rank) bool {
	return func(r *Rank) bool {
		var data []float64
		if r.ID() == root {
			data = []float64{1, 2, 3, 4, 5, 6, 7, 8}
		}
		switch m {
		case viaOracle:
			oracleBcastLargeInto(r.World(), nil, root, data)
		case viaBlocking:
			r.World().BcastLargeInto(nil, root, data)
		default:
			_, ok := r.World().TryBcastLargeInto(nil, root, data)
			return ok
		}
		return true
	}
}

func actReduceLarge(m actMode, root int) func(r *Rank) bool {
	return func(r *Rank) bool {
		me := float64(r.ID())
		data := []float64{me, 1, me, 2, me, 3, me, 4}
		switch m {
		case viaOracle:
			oracleReduceLarge(r.World(), root, data, OpSum)
		case viaBlocking:
			r.World().ReduceLarge(root, data, OpSum)
		default:
			_, ok := r.World().TryReduceLarge(root, data, OpSum)
			return ok
		}
		return true
	}
}

// TestConductedPairUpgrade holds the idle-marker wiring to the
// member-by-member oracle (collective_oracle_test.go), which wires every
// pair with a real ring: pairs a conducted collective registered are later
// used point to point, hold point-to-point traffic ahead of a collective,
// or hold a RecvTimeout pushback. Per-rank Stats, ActivePairs and observer
// streams must match across the oracle and the conductor — fault-free and
// under an empty fault plan, whose conducts take the faulted helpers — on 1
// and 4 workers, closures and steppers. A pair whose marker a Send or Recv
// was handed instead of a real ring never delivers, and the run ends in a
// deadlock verdict.
func TestConductedPairUpgrade(t *testing.T) {
	others := func(p, id int) []int {
		var ks []int
		for k := 0; k < p; k++ {
			if k != id {
				ks = append(ks, k)
			}
		}
		return ks
	}
	type wiringCase struct {
		name    string
		p       int
		chanCap int
		acts    func(id int, m actMode) []func(r *Rank) bool
		closure func(r *Rank, coll collectiveSet) error // set when the program has no Stepper twin
	}
	cases := []wiringCase{{
		// (a) Collective, then every pair point to point — the first wave
		// runs high ids first, so both senders and receivers swap markers
		// out — then collectives over the upgraded pairs.
		name: "collective-p2p-collective",
		p:    4,
		acts: func(id int, m actMode) []func(r *Rank) bool {
			acts := []func(r *Rank) bool{actCompute(float64(10 * (id + 1))), actBcastLarge(m, 0)}
			for _, k := range others(4, id) {
				acts = append(acts, actSend(m, k, float64(id), float64(k)))
			}
			for _, k := range others(4, id) {
				acts = append(acts, actRecv(m, k))
			}
			return append(acts, actReduceLarge(m, 3), actBcastLarge(m, 1))
		},
	}}
	for _, chanCap := range []int{1, defaultChanCap} {
		// (b) A message left unreceived on a pair ahead of a collective
		// over it. ReduceLarge's messages are all four words here and its
		// path depends on no received value, so the collective's first
		// receive on the pair consumes the stale head like any block, and
		// leaves one message behind for a Recv. (A stale message in both
		// directions would deadlock the oracle at
		// chanCap 1: both members' first sends find their pair full.)
		cases = append(cases, wiringCase{
			name:    fmt.Sprintf("stale-p2p-ahead/chancap=%d", chanCap),
			p:       2,
			chanCap: chanCap,
			acts: func(id int, m actMode) []func(r *Rank) bool {
				if id == 0 {
					return []func(r *Rank) bool{actCompute(5), actBcastLarge(m, 0), actSend(m, 1, -1, -2, -3, -4),
						actReduceLarge(m, 0), actBcastLarge(m, 1)}
				}
				return []func(r *Rank) bool{actCompute(2), actBcastLarge(m, 0), actReduceLarge(m, 0), actRecv(m, 0),
					actBcastLarge(m, 1)}
			},
		})
	}
	// (c) A RecvTimeout pushes rank 0's first message back, a second fills
	// the one-message pair, and a conducted Bcast over the pair takes the
	// pushed-back head and displaces the queued one into the pushback slot.
	cases = append(cases, wiringCase{
		name:    "recvtimeout-pushback-collective",
		p:       4,
		chanCap: 1,
		closure: func(r *Rank, coll collectiveSet) error {
			w := r.World()
			switch r.ID() {
			case 0:
				r.Compute(1000)
				r.Send(1, []float64{-1})
				r.Send(1, []float64{-2})
			case 1:
				if _, out := r.RecvTimeout(0, 1); out != RecvTimedOut {
					return fmt.Errorf("RecvTimeout: outcome %v, want a timeout with the message pushed back", out)
				}
			}
			var data []float64
			if r.ID() == 0 {
				data = []float64{7}
			}
			coll.Bcast(w, 0, data)
			if r.ID() == 1 {
				r.Recv(0)
				r.Recv(0)
			}
			coll.AllReduce(w, []float64{float64(r.ID())}, OpSum)
			return nil
		},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Result
			var refObs *recObs
			for _, route := range []struct {
				name   string
				faults *FaultPlan
				oracle bool
			}{{"oracle", nil, true}, {"conducted", nil, false}, {"conducted under an empty plan", &FaultPlan{}, false}} {
				acts := func(m actMode) func(id int) []func(r *Rank) bool {
					if route.oracle {
						m = viaOracle
					}
					return func(id int) []func(r *Rank) bool { return tc.acts(id, m) }
				}
				coll := conductor
				if route.oracle {
					coll = oracle
				}
				for _, w := range []int{1, 4} {
					for _, stepped := range []bool{false, true} {
						if stepped && (tc.acts == nil || route.oracle) {
							continue
						}
						cost := unitCost
						cost.chanCap, cost.Workers, cost.Faults = tc.chanCap, w, route.faults
						obs := newRecObs()
						cost.Observers = []Observer{obs}
						var res *Result
						var err error
						switch {
						case stepped:
							res, err = RunSteps(tc.p, cost, scripted(acts(viaTry)))
						case tc.acts != nil:
							res, err = Run(tc.p, cost, asClosure(acts(viaBlocking)))
						default:
							res, err = Run(tc.p, cost, func(r *Rank) error { return tc.closure(r, coll) })
						}
						name := fmt.Sprintf("%s workers=%d stepped=%v", route.name, w, stepped)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if ref == nil {
							ref, refObs = res, obs
							continue
						}
						requireSameResult(t, "oracle on one worker", ref, name, res)
						if !sameStreams(refObs, obs, tc.p) {
							t.Errorf("%s: observer streams differ from the oracle's", name)
						}
					}
				}
			}
		})
	}
}

// TestRingCensusCannonShape counts what a 2.5D Cannon-shaped program wires:
// fiber BcastLarge and ReduceLarge, which are conducted, around row and
// column shifts, which are point to point. Exactly the shifted pairs get a
// ring; the pairs only the fiber collectives use hold the idle marker; and
// ActivePairs counts both, the same number as when every pair owned a ring.
func TestRingCensusCannonShape(t *testing.T) {
	const q, c = 4, 2
	const p = q * q * c
	cost := unitCost
	cost.Workers = 1
	cl, err := NewCluster(p, cost)
	if err != nil {
		t.Fatal(err)
	}
	comm := func(r *Rank, members []int) *Comm {
		cm, err := r.NewComm(members)
		if err != nil {
			panic(err)
		}
		return cm
	}
	// next is the rank a shift by one sends to: the next member along the
	// row (j) or column (i) of the rank's layer.
	next := func(id int, col bool) int {
		layer, i, j := id/(q*q), id/q%q, id%q
		if col {
			i = (i + 1) % q
		} else {
			j = (j + 1) % q
		}
		return layer*q*q + i*q + j
	}
	if _, err := cl.Run(func(r *Rank) error {
		id := r.ID()
		layer, i, j := id/(q*q), id/q%q, id%q
		var row, col, fiber []int
		for k := 0; k < q; k++ {
			row = append(row, layer*q*q+i*q+k)
			col = append(col, layer*q*q+k*q+j)
		}
		for l := 0; l < c; l++ {
			fiber = append(fiber, l*q*q+i*q+j)
		}
		rowC, colC, fiberC := comm(r, row), comm(r, col), comm(r, fiber)
		var a []float64
		if layer == 0 {
			a = []float64{1, 2, 3, 4}
		}
		a = fiberC.BcastLarge(0, a)
		b := private(a)
		for s := 0; s < q/c; s++ {
			a = rowC.Shift(a, 1)
			b = colC.Shift(b, 1)
			r.Compute(128)
		}
		fiberC.ReduceLarge(0, a, OpSum)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	shifted := map[[2]int]bool{}
	for id := 0; id < p; id++ {
		shifted[[2]int{id, next(id, false)}] = true
		shifted[[2]int{id, next(id, true)}] = true
	}
	rings, markers := 0, 0
	for dst := range cl.mail {
		cl.mail[dst].queues.each(func(src int, q *evRing) {
			switch {
			case q == &idleRing:
				markers++
				if shifted[[2]int{src, dst}] {
					t.Errorf("shifted pair %d→%d holds the idle marker, want a ring", src, dst)
				}
			default:
				rings++
				if !shifted[[2]int{src, dst}] {
					t.Errorf("pair %d→%d carried only collective traffic but owns a ring", src, dst)
				}
			}
		})
	}
	if rings != len(shifted) {
		t.Errorf("%d rings allocated, want one per shifted pair: %d", rings, len(shifted))
	}
	if markers == 0 {
		t.Error("no pair carried collective traffic only: the census no longer tests the marker")
	}
	// 64 shifted pairs plus both directions of the 16 two-member fibers:
	// the count when every pair owned a ring.
	const wantPairs = 96
	if got := cl.ActivePairs(); got != wantPairs || got != rings+markers {
		t.Errorf("ActivePairs %d, want %d (%d rings + %d markers)", got, wantPairs, rings, markers)
	}
}

// TestRingChanCapLimit rejects a pair capacity the ring's uint32 cursors
// cannot index. Unchecked, the first value hangs evRing.init's power-of-two
// loop, the second truncates the capacity to 0 (every send parks: a false
// deadlock verdict) and the third to 1; each row fails within 5 s
// whatever the run does.
func TestRingChanCapLimit(t *testing.T) {
	program := func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, []float64{1})
		} else {
			r.Recv(0)
		}
		return nil
	}
	for _, chanCap := range []int{1<<31 + 1, 1 << 32, 1<<32 + 1} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(2, Cost{chanCap: chanCap}, program)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "sim: channel capacity") {
				t.Errorf("chanCap %d: got %v, want the capacity rejected", chanCap, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("chanCap %d: the run neither failed nor finished in 5 s", chanCap)
		}
	}
	if _, err := Run(2, Cost{chanCap: 1 << 31}, program); err != nil {
		t.Errorf("chanCap 2^31, the largest the cursors index: %v", err)
	}
}

// TestRingMessageSize pins a queued message at 40 bytes on 64-bit hosts:
// payload slice and arrival stamp, plus one pointer to degraded-link
// factors that only a degraded send allocates. Rings hold messages by
// value, so every byte here is paid per slot of every segment.
func TestRingMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(message{}); got != 40 {
		t.Errorf("message is %d bytes, want 40", got)
	}
}
