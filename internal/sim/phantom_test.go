package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// TestPhantomRegion pins what a phantom is: a read-only view of zeros that
// IsPhantom recognises down to its subslices, and nothing else is.
func TestPhantomRegion(t *testing.T) {
	ph := Phantom(64)
	if len(ph) != 64 || cap(ph) != 64 {
		t.Fatalf("Phantom(64) has len %d cap %d", len(ph), cap(ph))
	}
	for name, s := range map[string][]float64{
		"whole": ph, "view": ph[10:20], "tail": ph[63:], "empty view": ph[5:5],
		"largest": Phantom(PhantomWords), "largest tail": Phantom(PhantomWords)[PhantomWords-1:],
	} {
		if !IsPhantom(s) {
			t.Errorf("%s: IsPhantom = false", name)
		}
	}
	heap := make([]float64, 64)
	for name, s := range map[string][]float64{
		"nil": nil, "heap": heap, "heap view": heap[3:4], "Phantom(0)": Phantom(0), "no capacity": ph[64:],
	} {
		if IsPhantom(s) {
			t.Errorf("%s: IsPhantom = true", name)
		}
	}
	for _, k := range []int{-1, PhantomWords + 1} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "phantom region") {
					t.Errorf("Phantom(%d) panicked with %q, want a phantom-region message", k, msg)
				}
			}()
			Phantom(k)
		}()
	}
}

// TestPhantomWriteFaults pins that the region is read-only memory where the
// mapping exists: a write is a fault (made recoverable here by
// SetPanicOnFault), never a silent corruption of every later phantom.
func TestPhantomWriteFaults(t *testing.T) {
	if !phantomReadOnly {
		t.Skip("the phantom region is on the heap on this system; requireZeroRegion guards it")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	ph := Phantom(1)
	defer func() {
		if recover() == nil {
			ph[0] = 0
			t.Fatal("a write to a phantom did not fault")
		}
	}()
	ph[0] = 1
}

// payloadTour runs every collective the algorithms use, plus point-to-point
// traffic, on payloads from mk: real values or phantoms of the same
// lengths. In phantom mode every non-empty result must itself be a phantom
// (nothing was copied into a buffer of its own); in numeric mode none may be.
func payloadTour(phantom bool) func(r *Rank) error {
	return func(r *Rank) error {
		w := r.World()
		p, me := w.Size(), w.Me()
		mk := func(n int) []float64 {
			if phantom {
				return Phantom(n)
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(me*1000 + i)
			}
			return v
		}
		var bad []string
		got := func(op string, s []float64) []float64 {
			if len(s) > 0 && IsPhantom(s) != phantom {
				bad = append(bad, op)
			}
			return s
		}
		r.Compute(float64(10 * (me + 1))) // stagger the clocks

		r.Send((me+1)%p, mk(4))
		got("Recv", r.Recv((me-1+p)%p))
		x := got("Shift", w.Shift(mk(3), 1))
		x = got("ShiftOwned", w.ShiftOwned(x, p-1))
		got("Shift 0", w.Shift(x, 0))
		got("Bcast", w.Bcast(p-1, mk(5)))
		got("Reduce", w.Reduce(0, mk(6), OpSum))
		got("AllReduce", w.AllReduce(mk(2), opMax))
		// BcastLarge on both paths — p | n, and the fallback lengths p−1 and
		// 2p+1 — with the panel loop's dst reuse; ReduceLarge likewise.
		var dst []float64
		for s, n := range []int{3 * p, p - 1, 2*p + 1, 3 * p} {
			root := s % p
			var in []float64
			if me == root {
				in = mk(n)
			}
			dst = got(fmt.Sprintf("BcastLargeInto n=%d", n), w.BcastLargeInto(dst, root, in))
			got(fmt.Sprintf("ReduceLarge n=%d", n), w.ReduceLarge(root, mk(n), OpSum))
		}
		w.AllReduce(nil, OpSum)
		if len(bad) > 0 {
			return fmt.Errorf("rank %d: phantom=%v but results of %v disagree", r.ID(), phantom, bad)
		}
		return nil
	}
}

// TestPhantomTourIdentical is the runtime's payload-free contract: on every
// collective route and two host schedules, a phantom run's per-rank Stats
// and ActivePairs equal the numeric run's bit for bit, and with an observer
// attached so do the per-rank segment streams. The region is still all
// zero afterwards.
func TestPhantomTourIdentical(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for route, cost := range collectiveRoutes() {
			numeric := runSchedules(t, p, cost, payloadTour(false))
			phantom := runSchedules(t, p, cost, payloadTour(true))
			requireSameResult(t, fmt.Sprintf("p=%d %s numeric", p, route), numeric, "phantom", phantom)
		}
		var streams [2]*recObs
		for i, phantom := range []bool{false, true} {
			streams[i] = newRecObs()
			cost := unitCost
			cost.Observers = []Observer{streams[i]}
			if _, err := Run(p, cost, payloadTour(phantom)); err != nil {
				t.Fatalf("p=%d observed phantom=%v: %v", p, phantom, err)
			}
		}
		for rank := 0; rank < p; rank++ {
			if !slices.Equal(streams[0].segs[rank], streams[1].segs[rank]) {
				t.Errorf("p=%d rank %d: observed segments differ\n  numeric: %+v\n  phantom: %+v",
					p, rank, streams[0].segs[rank], streams[1].segs[rank])
			}
		}
	}
	requireZeroRegion(t, 1<<10)
}

// TestPhantomStaleTraffic sends phantoms through the conductor's one copy
// of a message that outlives the conduct: the scatter chunk that queues
// behind stale point-to-point traffic (TestConductStaleScatterChunk's
// program). The phantom chunk needs no private copy, and the run prices
// exactly like its numeric twin, on every route, the empty fault plan's
// included.
func TestPhantomStaleTraffic(t *testing.T) {
	prog := func(phantom bool) func(r *Rank) error {
		mk := func(n int) []float64 {
			if phantom {
				return Phantom(n)
			}
			return make([]float64, n)
		}
		return func(r *Rank) error {
			w := r.World()
			var in []float64
			if r.ID() == 0 {
				in = mk(8)
				r.Send(3, mk(2))
			}
			if got := w.BcastLargeInto(nil, 0, in); IsPhantom(got) != phantom {
				return fmt.Errorf("rank %d: result phantom=%v", r.ID(), IsPhantom(got))
			}
			w.AllReduce(nil, OpSum)
			if r.ID() == 3 {
				if late := r.Recv(0); IsPhantom(late) != phantom {
					return fmt.Errorf("queued chunk phantom=%v", IsPhantom(late))
				}
			}
			return nil
		}
	}
	for route, cost := range collectiveRoutes() {
		numeric := runSchedules(t, 4, cost, prog(false))
		phantom := runSchedules(t, 4, cost, prog(true))
		requireSameResult(t, route+" numeric", numeric, "phantom", phantom)
	}
	requireZeroRegion(t, 8)
}

// requireZeroRegion fails unless the first n words of the phantom region —
// every word the calling test's phantoms covered — still read zero. On the
// read-only mapping a write would have faulted already; the heap fallback
// relies on this check.
func requireZeroRegion(t *testing.T, n int) {
	t.Helper()
	for i, v := range Phantom(n) {
		if v != 0 {
			t.Fatalf("phantom region word %d is %g: something wrote a phantom", i, v)
		}
	}
}

// TestPhantomSentUnderPlan: a clean copy of a phantom sent point to point
// under a fault plan is delivered as the phantom itself, as without one —
// by Send, by TrySend and by TryShiftOwned, both copies of a duplicate
// included — and only a corrupted copy is a fresh buffer.
func TestPhantomSentUnderPlan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		plan    *FaultPlan
		copies  int
		phantom bool
	}{
		{"empty", &FaultPlan{}, 1, true},
		{"duplicate", &FaultPlan{Links: []LinkFault{{Src: -1, Dst: -1, DupProb: 1}}}, 2, true},
		{"corrupt", &FaultPlan{Links: []LinkFault{{Src: -1, Dst: -1, CorruptProb: 1}}}, 1, false},
	} {
		cost := unitCost
		cost.Faults = tc.plan
		var got [][]float64
		if _, err := Run(2, cost, func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, Phantom(16))
				return nil
			}
			for i := 0; i < tc.copies; i++ {
				got = append(got, r.Recv(0))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := RunSteps(2, cost, scripted(func(id int) []func(r *Rank) bool {
			if id == 0 {
				return []func(r *Rank) bool{
					func(r *Rank) bool { return r.TrySend(1, Phantom(16)) },
					func(r *Rank) bool { _, ok := r.World().TryShiftOwned(Phantom(16), 1); return ok },
				}
			}
			recv := func(r *Rank) bool {
				v, ok := r.TryRecv(0)
				if ok {
					got = append(got, v)
				}
				return ok
			}
			shift := func(r *Rank) bool {
				v, ok := r.World().TryShiftOwned(Phantom(16), 1)
				if ok {
					got = append(got, v)
				}
				return ok
			}
			// The send's copies, the shift's first, then its second.
			acts := []func(r *Rank) bool{recv}
			for i := 1; i < tc.copies; i++ {
				acts = append(acts, recv)
			}
			acts = append(acts, shift)
			for i := 1; i < tc.copies; i++ {
				acts = append(acts, recv)
			}
			return acts
		})); err != nil {
			t.Fatal(err)
		}
		if len(got) != 3*tc.copies {
			t.Fatalf("%s: received %d payloads, want %d", tc.name, len(got), 3*tc.copies)
		}
		for i, v := range got {
			if len(v) != 16 || IsPhantom(v) != tc.phantom {
				t.Errorf("%s: payload %d has %d words, phantom %v; want 16, phantom %v", tc.name, i, len(v), IsPhantom(v), tc.phantom)
			}
		}
	}
}
