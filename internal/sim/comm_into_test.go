package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// collectiveRoutes are the three ways a collective can execute: conducted
// under a cancel context (the service's shape, where the conductor owns its
// members), conducted without one, and member by member (an observer
// disqualifies the conductor).
func collectiveRoutes() map[string]Cost {
	conducted := unitCost
	conducted.Context = context.Background()
	generic := unitCost
	generic.Observers = []Observer{nopObserver{}}
	return map[string]Cost{"conducted": conducted, "conducted-free": unitCost, "generic": generic}
}

// TestBcastLargeInto holds BcastLargeInto to BcastLarge on every route:
// same values whatever dst offers (nothing, too little, exactly enough,
// more), bit-identical Results, the root's data untouched, every member's
// result private, and the panel-loop pattern — the previous result passed
// as the next call's dst under a different root — intact. On the conducted
// route a dst that is large enough must actually be used.
func TestBcastLargeInto(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8, 16} {
		for _, n := range []int{0, p - 1, 2*p + 1, 3 * p} { // none, < p, p ∤ n, p | n
			rng := rand.New(rand.NewSource(int64(100*p + n)))
			first, second := make([]float64, n), make([]float64, n)
			for i := range first {
				first[i], second[i] = rng.Float64(), rng.Float64()
			}
			pristine := [2][]float64{slices.Clone(first), slices.Clone(second)}
			roots := [2]int{p / 2, p - 1}
			ref, err := Run(p, unitCost, func(r *Rank) error {
				w := r.World()
				for s, data := range [2][]float64{first, second} {
					if got := w.BcastLarge(roots[s], data); !slices.Equal(got, data) {
						return fmt.Errorf("BcastLarge step %d: got %v", s, got)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d reference: %v", p, n, err)
			}
			for route, cost := range collectiveRoutes() {
				for _, dstCap := range []int{-1, n / 2, n, n + 5} { // nil, short, exact, longer
					name := fmt.Sprintf("p=%d n=%d %s dst=%d", p, n, route, dstCap)
					res, err := Run(p, cost, func(r *Rank) error {
						w := r.World()
						var dst []float64
						if dstCap >= 0 {
							dst = make([]float64, dstCap)
							for i := range dst {
								dst[i] = -1
							}
						}
						for s, data := range [2][]float64{first, second} {
							var in []float64
							if w.Me() == roots[s] {
								in = data
							}
							got := w.BcastLargeInto(dst, roots[s], in)
							if !slices.Equal(got, pristine[s]) {
								return fmt.Errorf("step %d rank %d: got %v, want %v", s, r.ID(), got, pristine[s])
							}
							if route == "conducted" && p > 1 && n > 0 && n%p == 0 && cap(dst) >= n && &got[0] != &dst[0] {
								return fmt.Errorf("step %d rank %d: the conductor ignored a sufficient dst", s, r.ID())
							}
							// Results are private: scribbling on one must not
							// reach the root's data or a neighbour's result.
							for i := range got {
								got[i] = -float64(r.ID())
							}
							dst = got
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireSameResult(t, "BcastLarge/goroutine", ref, name, res)
					if !slices.Equal(first, pristine[0]) || !slices.Equal(second, pristine[1]) {
						t.Fatalf("%s: the root's data was modified", name)
					}
				}
			}
		}
	}
}

// TestConductBorrowsPrivately checks what the borrowing conductors must not
// leak: ReduceLarge leaves every caller's data alone (the accumulators are
// rendezvous scratch), and a standalone ReduceScatter's result is the
// member's own — later conducts that reuse the pooled slab, a ReduceLarge
// and another ReduceScatter, do not reach it.
func TestConductBorrowsPrivately(t *testing.T) {
	for route, cost := range collectiveRoutes() {
		for _, p := range []int{2, 3, 7, 8, 16} {
			_, err := Run(p, cost, func(r *Rank) error {
				w := r.World()
				me := float64(w.Me())
				data := make([]float64, 2*p)
				for i := range data {
					data[i] = me*100 + float64(i)
				}
				mine := slices.Clone(data)
				sum := func(i int) float64 { return float64(100*p*(p-1)/2 + p*i) }

				kept := w.ReduceScatter(data, OpSum)
				want := []float64{sum(2 * w.Me()), sum(2*w.Me() + 1)}
				total := w.ReduceLarge(p-1, data, OpSum)
				if w.Me() == p-1 {
					for i := range total {
						if total[i] != sum(i) {
							return fmt.Errorf("ReduceLarge elem %d = %g, want %g", i, total[i], sum(i))
						}
					}
				} else if total != nil {
					return fmt.Errorf("rank %d: non-root ReduceLarge result %v", r.ID(), total)
				}
				for i := range data {
					data[i] = -1 // other scratch contents for the next ring
				}
				w.ReduceScatter(data, OpMax)
				if !slices.Equal(kept, want) {
					return fmt.Errorf("rank %d: ReduceScatter result %v became %v", r.ID(), want, kept)
				}
				copy(data, mine)
				w.ReduceLarge(0, data, OpSum)
				if !slices.Equal(data, mine) {
					return fmt.Errorf("rank %d: ReduceLarge modified its caller's data", r.ID())
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s p=%d: %v", route, p, err)
			}
		}
	}
}

// TestConductStaleScatterChunk leaves a point-to-point message queued on a
// root→member pair the broadcast's scatter uses (member 3 of 4 hears the
// announcement from member 2, so root→3 carries nothing else). FIFO order
// hands the member the stale message as its chunk and queues the real chunk
// behind it, on both runtimes alike; the conducted scatter sends views of
// the root's buffer, so the queued chunk must have become a private copy —
// the root overwrites its buffer before the member receives it.
func TestConductStaleScatterChunk(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	stale := []float64{-1, -2}
	want := []float64{1, 2, 3, 4, 5, 6, -1, -2}
	runSchedules(t, 4, unitCost, func(r *Rank) error {
		w := r.World()
		var in []float64
		if r.ID() == 0 {
			in = slices.Clone(data)
			r.Send(3, stale)
		}
		if got := w.BcastLargeInto(nil, 0, in); !slices.Equal(got, want) {
			return fmt.Errorf("rank %d: got %v, want %v", r.ID(), got, want)
		}
		for i := range in {
			in[i] = 0
		}
		w.Barrier()
		if r.ID() == 3 {
			if late := r.Recv(0); !slices.Equal(late, data[6:]) {
				return fmt.Errorf("queued scatter chunk arrived as %v, want %v", late, data[6:])
			}
		}
		return nil
	})
}

// TestConductDropsLargeSlab checks the scratch pool's retention rule: a
// scratch comes back from a 1 MiB-per-member reduce without its slab, keeps
// a small one, and carries no pointer into the pool either way.
func TestConductDropsLargeSlab(t *testing.T) {
	const words = 1 << 17
	_, err := Run(2, unitCost, func(r *Rank) error {
		data := make([]float64, words)
		data[words-1] = float64(r.ID() + 1)
		if got := r.World().ReduceLarge(0, data, OpSum); r.ID() == 0 && got[words-1] != 3 {
			return fmt.Errorf("reduced tail %g, want 3", got[words-1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	big, small := getRend(2), getRend(2)
	big.ffScratch, small.ffScratch = new(ffScratch), new(ffScratch)
	big.slabScratch(2 * words)
	small.slabScratch(ffSlabMax)
	for _, rv := range []*ffRendezvous{big, small} {
		rv.wireScratch()[1] = ffWire{m: message{data: rv.slab}, q: new(evRing)}
		rv.bufScratch()[1] = rv.slab
		rv.release()
	}
	if big.slab != nil {
		t.Errorf("a %d-word slab went back into the pool", cap(big.slab))
	}
	if cap(small.slab) != ffSlabMax {
		t.Errorf("a %d-word slab was dropped, the pool keeps up to %d", ffSlabMax, ffSlabMax)
	}
	// Whatever the pool holds now — these two and the run's own — obeys it.
	for i := 0; i < 8; i++ {
		sc := ffScratchPool.Get().(*ffScratch)
		if cap(sc.slab) > ffSlabMax {
			t.Errorf("pooled scratch holds a %d-word slab", cap(sc.slab))
		}
		for j, w := range sc.wires {
			if w.m.data != nil || w.q != nil {
				t.Errorf("pooled scratch holds wire %d: %+v", j, w)
			}
		}
		for j := range sc.bufs {
			if sc.bufs[j] != nil {
				t.Errorf("pooled scratch holds working slice %d", j)
			}
		}
	}
}
