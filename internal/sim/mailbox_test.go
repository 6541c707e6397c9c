package sim

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRecvDrainsMessagesSentBeforeExit pins the delivery guarantee the exit
// notification must preserve: messages queued before the sender exits are
// received, in order, before a failed receive is reported.
func TestRecvDrainsMessagesSentBeforeExit(t *testing.T) {
	cost := unitCost
	cost.Workers = 1
	_, err := Run(2, cost, func(r *Rank) error {
		const n = 5
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, []float64{float64(i)})
			}
			return nil // exit immediately; rank 1 drains afterwards
		}
		// On one worker the 256th Compute yields to rank 0, which is behind
		// in virtual time and runs to its exit before rank 1 resumes.
		for i := 0; i < 256; i++ {
			r.Compute(1)
		}
		if exited, _, _ := r.PeerExit(0); !exited {
			t.Error("rank 0 has not exited before the drain; the test no longer tests it")
		}
		for i := 0; i < n; i++ {
			if got := r.Recv(0); got[0] != float64(i) {
				t.Errorf("message %d wrong or out of order: %v", i, got)
			}
		}
		r.Recv(0) // nothing left: must fail cleanly, not hang
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exited without sending") {
		t.Errorf("expected exited-peer error after drain, got %v", err)
	}
}

// TestActivePairsScalesWithPattern pins what on-demand wiring buys: the
// wired pair count follows the communication pattern, not p².
func TestActivePairsScalesWithPattern(t *testing.T) {
	const p = 64
	c, err := NewCluster(p, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(func(r *Rank) error {
		next := (r.ID() + 1) % p
		prev := (r.ID() - 1 + p) % p
		for step := 0; step < 4; step++ {
			r.Send(next, []float64{1})
			r.Recv(prev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A ring wires exactly p directed pairs, however many steps run.
	if got := c.ActivePairs(); got != p {
		t.Errorf("ring should wire exactly %d pairs, got %d", p, got)
	}
}

// TestSparseWiring16kRanks is the scale demonstration: a p=16384 cluster —
// whose dense wiring would allocate ~268M queues before the first flop —
// creates in milliseconds, runs a ring + hypercube exchange program, wires
// only pattern-many pairs, and produces the exact symmetric virtual time.
func TestSparseWiring16kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("16384-goroutine cluster: skipped in -short")
	}
	if raceEnabled {
		t.Skip("race detector caps a process at 8192 goroutines")
	}
	const p = 16384 // 2^14
	const k = 16
	cost := Cost{AlphaT: 1e-6, BetaT: 1e-9, chanCap: 2}
	c, err := NewCluster(p, cost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(func(r *Rank) error {
		data := make([]float64, k)
		next := (r.ID() + 1) % p
		prev := (r.ID() - 1 + p) % p
		data = r.SendRecv(next, data, prev) // one ring step
		for bit := 1; bit < p; bit <<= 1 {  // 14 hypercube rounds
			data = r.SendRecv(r.ID()^bit, data, r.ID()^bit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank runs the identical fully-overlapped schedule: 15 exchange
	// steps of αt + k·βt each, exactly (summed the way the clock does, so
	// the comparison is bit-exact).
	dt := cost.AlphaT*1 + cost.BetaT*float64(k)
	want := 0.0
	for i := 0; i < 15; i++ {
		want += dt
	}
	if got := res.Time(); got != want {
		t.Errorf("virtual time: got %g want %g", got, want)
	}
	// The ring wires p pairs (i → i+1) and each hypercube round wires p
	// pairs (i → i^bit); the bit=1 round re-uses the ring's pair for every
	// even i (i^1 == i+1), so p/2 of its pairs are already wired.
	if got, want := c.ActivePairs(), 15*p-p/2; got != want {
		t.Errorf("active pairs: got %d want %d (dense would be %d)", got, want, p*p)
	}
}

// size is the table's slot count, 0 while it is empty.
func (t *peerTable) size() int {
	if s := t.cur.Load(); s != nil {
		return len(s.slots)
	}
	return 0
}

// TestPeerTableGrowsTo511Peers fills one table with the 511 peers of an
// fft_naive rank at p = 512: every key stays reachable across the growths,
// the slot array stays a power of two at most 3/4 full and doubles exactly
// when the next insert would pass 3/4, and keys never inserted read nil.
func TestPeerTableGrowsTo511Peers(t *testing.T) {
	const p = 512
	var tab peerTable
	rings := make([]evRing, p)
	for k := 1; k < p; k++ {
		before := tab.size()
		want := before
		if 4*k > 3*before {
			want = max(2*before, peerTableMin)
		}
		tab.set(k, &rings[k])
		if size := tab.size(); size != want || size&(size-1) != 0 || 4*int(tab.n) > 3*size {
			t.Fatalf("after %d puts: %d slots hold %d keys, want %d slots", k, size, tab.n, want)
		}
	}
	if tab.n != p-1 || tab.size() != 1024 {
		t.Fatalf("511 peers: n=%d slots=%d, want 511 in 1024", tab.n, tab.size())
	}
	for k := 1; k < p; k++ {
		if got := tab.get(k); got != &rings[k] {
			t.Fatalf("peer %d: got %p want %p", k, got, &rings[k])
		}
	}
	for _, k := range []int{0, p, p + 1, 2 * p, 1 << 19} {
		if got := tab.get(k); got != nil {
			t.Errorf("absent peer %d: got %p, want nil", k, got)
		}
	}
	// Setting a present peer replaces its ring in place.
	tab.set(5, &rings[0])
	if tab.get(5) != &rings[0] || tab.n != p-1 || tab.size() != 1024 {
		t.Errorf("replacing peer 5: got %p, n=%d slots=%d", tab.get(5), tab.n, tab.size())
	}
}

// TestPeerTableAbsentKeys pins the miss path on an empty table and past a
// collision: the keys below all share one home slot of an eight-slot
// table, so a miss must walk past the stored ones to an empty slot.
func TestPeerTableAbsentKeys(t *testing.T) {
	var tab peerTable
	if tab.get(0) != nil || tab.get(7) != nil {
		t.Fatal("empty table must miss")
	}
	var r evRing
	tab.set(3, &r)
	home := tab.cur.Load().home(3)
	var same []int
	for k := 4; len(same) < 2; k++ {
		if tab.cur.Load().home(int32(k)) == home {
			same = append(same, k)
		}
	}
	tab.set(same[0], &r)
	if tab.get(same[1]) != nil {
		t.Errorf("peer %d shares peer 3's home slot but was never put", same[1])
	}
	if tab.get(3) != &r || tab.get(same[0]) != &r {
		t.Error("colliding keys must both be found")
	}
}

// TestPeerTableExtremeIDs stores the first and last rank ids of a
// p = 2^20 cluster and checks that every id of that cluster hashes inside
// the slot array at each size a table passes through.
func TestPeerTableExtremeIDs(t *testing.T) {
	const p = 1 << 20
	var tab peerTable
	var first, last evRing
	tab.set(0, &first)
	tab.set(p-1, &last)
	if tab.get(0) != &first || tab.get(p-1) != &last {
		t.Fatal("ids 0 and p-1 must map to their own rings")
	}
	for _, k := range []int{1, p - 2, 1 << 16, p / 2, p - 1 - 1<<16} {
		if tab.get(k) != nil {
			t.Fatalf("id %d was never put", k)
		}
	}
	for tab.n < 600 {
		tab.set(int(tab.n)*1747+1, &first)
		size := tab.size()
		for k := int32(0); k < p; k += 4093 {
			if h := tab.cur.Load().home(k); h < 0 || h >= size {
				t.Fatalf("id %d hashes to slot %d of %d", k, h, size)
			}
		}
		if h := tab.cur.Load().home(p - 1); h >= size {
			t.Fatalf("id p-1 hashes to slot %d of %d", h, size)
		}
	}
	if tab.get(0) != &first || tab.get(p-1) != &last {
		t.Fatal("ids 0 and p-1 lost across growth")
	}
}

// TestPeerTableConcurrentLookups registers first contacts into one mailbox
// from three goroutines, through every growth from 8 slots to 1,024, while
// two readers probe it without the lock: one the way pairOf does (it locks
// on a miss or the idle marker), one the way a conductor's wire does (it
// locks on a miss only). Every other key is registered with the idle marker
// first and swapped for its ring later. A lookup must return nil, the marker
// or exactly the ring registered for its key, and must never go back: a
// reader that saw a key's ring keeps seeing it. Between those checks the
// readers hammer a never-stored twin of each key a writer is inserting right
// now — same home slot, so its probe ends on the empty slot that insert
// fills — and it must read nil: a probe that loaded a slot's ring twice
// would return the new ring for the twin.
func TestPeerTableConcurrentLookups(t *testing.T) {
	const keys, writers = 600, 3
	rounds := 20
	if RaceEnabled {
		rounds = 4
	}
	key := func(i int) int { return 5*i + 1 } // strided ids, 0 never stored
	// twin[b][i] is an id ≢ 1 (mod 5) with key(i)'s home in a 2^b-slot table.
	var twin [11][keys]int
	for b := 3; b <= 10; b++ {
		s := peerSlots{shift: uint8(32 - b)}
		first := make(map[int]int)
		for id := 3; len(first) < 1<<b; id += 5 {
			if _, ok := first[s.home(int32(id))]; !ok {
				first[s.home(int32(id))] = id
			}
		}
		for i := range twin[b] {
			twin[b][i] = first[s.home(int32(key(i)))]
		}
	}
	rings := make([]evRing, keys)
	var bad atomic.Int32
	for round := 0; round < rounds; round++ {
		var mb mailbox
		var done atomic.Bool
		var pending [writers]atomic.Int32
		var writing, reading sync.WaitGroup
		for w := 0; w < writers; w++ {
			writing.Add(1)
			go func(w int) {
				defer writing.Done()
				register := func(i int, q *evRing) {
					pending[w].Store(int32(i))
					mb.mu.Lock()
					mb.queues.set(key(i), q)
					mb.mu.Unlock()
				}
				for i := w; i < keys; i += writers {
					if i%2 == 1 {
						register(i, &idleRing)
					} else {
						register(i, &rings[i])
					}
				}
				for i := w; i < keys; i += writers {
					if i%2 == 1 {
						register(i, &rings[i])
					}
				}
			}(w)
		}
		for _, lockOnIdle := range []bool{true, false} {
			reading.Add(1)
			go func() {
				defer reading.Done()
				fail := func(format string, args ...any) {
					if bad.Add(1) == 1 {
						t.Errorf("round %d: "+format, append([]any{round}, args...)...)
					}
				}
				seen := make([]uint8, keys) // 0 nothing, 1 the marker, 2 the ring
				for pass := 0; pass < keys || !done.Load(); pass++ {
					for w := range pending {
						s := mb.queues.cur.Load()
						if s == nil {
							continue
						}
						tw := twin[32-s.shift][pending[w].Load()]
						if q := mb.queues.get(tw); q != nil {
							fail("never-stored id %d read %p", tw, q)
						}
					}
					i := pass % keys
					q := mb.queues.get(key(i))
					if q == nil || (lockOnIdle && q == &idleRing) {
						mb.mu.Lock()
						q = mb.queues.get(key(i))
						mb.mu.Unlock()
					}
					state := uint8(0)
					switch q {
					case nil:
					case &idleRing:
						state = 1
					case &rings[i]:
						state = 2
					default:
						state = 255
					}
					if state == 255 || state < seen[i] {
						fail("key %d read %p after state %d, want nil, the marker or %p", key(i), q, seen[i], &rings[i])
						continue
					}
					seen[i] = state
				}
			}()
		}
		writing.Wait()
		done.Store(true)
		reading.Wait()
		if bad.Load() > 0 {
			t.Fatalf("round %d: %d bad lookups", round, bad.Load())
		}
		if mb.queues.n != keys || mb.queues.size() != 1024 {
			t.Fatalf("round %d: %d keys in %d slots, want %d in 1024", round, mb.queues.n, mb.queues.size(), keys)
		}
		for i := 0; i < keys; i++ {
			if q := mb.queues.get(key(i)); q != &rings[i] {
				t.Fatalf("round %d: key %d holds %p, want %p", round, key(i), q, &rings[i])
			}
		}
	}
}

// TestQueuedPairsSortedInDeadlockSnapshot leaves one message on every pair
// src→dst with dst > src+1 and deadlocks the cluster. The snapshot walks
// each mailbox's table in slot order, which is not id order, so the
// report must come out sorted by (src, dst) and complete.
func TestQueuedPairsSortedInDeadlockSnapshot(t *testing.T) {
	const p = 16
	_, err := Run(p, zeroCost, func(r *Rank) error {
		for dst := r.ID() + 1; dst < p; dst++ {
			r.Send(dst, []float64{1})
		}
		prev := (r.ID() + p - 1) % p
		r.Recv(prev) // rank prev sent one message here, except to rank 0
		r.Recv(prev) // nobody sends a second: deadlock
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) || de.Snapshot == nil {
		t.Fatalf("want a deadlock with a snapshot, got %v", err)
	}
	var want []QueuedPair
	for src := 0; src < p; src++ {
		for dst := src + 2; dst < p; dst++ {
			want = append(want, QueuedPair{Src: src, Dst: dst, Count: 1})
		}
	}
	if got := de.Snapshot.Queued; !slices.Equal(got, want) {
		t.Errorf("queued pairs:\n got  %v\n want %v", got, want)
	}
}
