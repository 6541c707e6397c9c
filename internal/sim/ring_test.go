package sim

import (
	"runtime"
	"testing"
)

// newRing returns an evRing of the given semantic capacity whose cursors
// both start at start (0 in production; tests move it next to the uint32
// wrap).
func newRing(chanCap int, start uint32) *evRing {
	q := &evRing{}
	q.init(chanCap)
	q.head.Store(start)
	q.tail.Store(start)
	return q
}

// seqMsg is a message tagged with its position in the stream.
func seqMsg(i int) message { return message{arrival: float64(i)} }

// popSeq pops one message and checks it is number want of the stream.
func popSeq(t *testing.T, q *evRing, want int) {
	t.Helper()
	m, ok := q.pop()
	if !ok {
		t.Fatalf("pop %d: ring empty, length() = %d", want, q.length())
	}
	if m.arrival != float64(want) {
		t.Fatalf("pop returned message %v, want %d", m.arrival, want)
	}
}

// TestRingFIFOAcrossGrowth fills a ring to chanCap in bursts, draining a
// little between bursts so that every growth step happens with live
// messages straddling the old and the new segment, and checks the stream
// comes out in order and the chain doubled from evSegMin up to the cap.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	q := newRing(defaultChanCap, 0)
	var sizes []int
	var last *evSeg
	sent, rcvd := 0, 0
	for target := 1; target <= defaultChanCap; target++ {
		// Raise the occupancy to target, then take one message back out:
		// head keeps moving, so segment bases land on unaligned cursors.
		for q.length() < target {
			if !q.push(seqMsg(sent)) {
				t.Fatalf("push %d failed at length %d < chanCap", sent, q.length())
			}
			sent++
			if q.tseg != last {
				last = q.tseg
				sizes = append(sizes, len(last.buf))
			}
		}
		popSeq(t, q, rcvd)
		rcvd++
	}
	for rcvd < sent {
		popSeq(t, q, rcvd)
		rcvd++
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on a drained ring")
	}
	want := []int{2, 4, 8, 16, 32, 64}
	if len(sizes) != len(want) {
		t.Fatalf("segment lengths %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("segment lengths %v, want %v", sizes, want)
		}
	}
	if q.hseg != q.tseg {
		t.Error("drained consumer did not follow the chain to the producer's segment")
	}
}

// TestRingSemanticCapacity pins that chanCap, not the storage, is what push
// tests: it fails at exactly chanCap queued and succeeds again after one pop,
// for capacities below, at, and between powers of two, while the storage of
// a full ring is the next power of two.
func TestRingSemanticCapacity(t *testing.T) {
	for _, tc := range []struct{ chanCap, slots int }{{1, 1}, {2, 2}, {3, 4}, {64, 64}, {100, 128}} {
		q := newRing(tc.chanCap, 0)
		for i := 0; i < tc.chanCap; i++ {
			if !q.push(seqMsg(i)) {
				t.Fatalf("chanCap %d: push %d failed below capacity", tc.chanCap, i)
			}
		}
		if q.push(seqMsg(-1)) {
			t.Fatalf("chanCap %d: push succeeded with %d queued", tc.chanCap, q.length())
		}
		if q.length() != tc.chanCap {
			t.Fatalf("chanCap %d: length() = %d when full", tc.chanCap, q.length())
		}
		if n := len(q.tseg.buf); n != tc.slots {
			t.Errorf("chanCap %d: full ring's segment has %d slots, want %d", tc.chanCap, n, tc.slots)
		}
		popSeq(t, q, 0)
		if !q.push(seqMsg(tc.chanCap)) {
			t.Fatalf("chanCap %d: push failed after a pop made room", tc.chanCap)
		}
		if q.push(seqMsg(-1)) {
			t.Fatalf("chanCap %d: second push succeeded on a full ring", tc.chanCap)
		}
		for i := 1; i <= tc.chanCap; i++ {
			popSeq(t, q, i)
		}
	}
}

// TestRingCursorWrap starts both cursors just below 2³² and drives a stream
// with growth across the wrap: slot indexing, the occupancy test and the
// consumer's base comparison are all modular.
func TestRingCursorWrap(t *testing.T) {
	q := newRing(defaultChanCap, 1<<32-10)
	sent, rcvd := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 3 && q.length() < defaultChanCap; i++ {
			if !q.push(seqMsg(sent)) {
				t.Fatalf("push %d failed at length %d", sent, q.length())
			}
			sent++
		}
		popSeq(t, q, rcvd)
		rcvd++
		if got := q.length(); got != sent-rcvd {
			t.Fatalf("length() = %d, want %d", got, sent-rcvd)
		}
	}
	if q.tail.Load() > 1<<31 {
		t.Fatalf("tail %d did not wrap", q.tail.Load())
	}
	for rcvd < sent {
		popSeq(t, q, rcvd)
		rcvd++
	}
}

// TestRingConcurrentStream runs the producer and the consumer on two
// goroutines — the only sharing the engine ever allows on a pair — and
// checks that a million-message stream arrives complete, once and in order.
// A small chanCap keeps the ring bouncing off both the full and the empty
// condition; under -race this also checks the publish order of slot, link
// and cursor.
func TestRingConcurrentStream(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	for _, chanCap := range []int{5, defaultChanCap} {
		q := newRing(chanCap, 1<<32-1000)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				for !q.push(seqMsg(i)) {
					runtime.Gosched()
				}
			}
		}()
		bad := -1
		for i := 0; i < n; i++ {
			m, ok := q.pop()
			for !ok {
				runtime.Gosched()
				m, ok = q.pop()
			}
			if m.arrival != float64(i) && bad < 0 {
				bad = i
			}
		}
		<-done
		if bad >= 0 {
			t.Fatalf("chanCap %d: stream lost, duplicated or reordered a message at %d", chanCap, bad)
		}
		if q.length() != 0 {
			t.Fatalf("chanCap %d: %d messages left over", chanCap, q.length())
		}
	}
}

// TestRingSteadyStateAllocs guards against the chunk-list failure mode: a
// long stream with at most two messages in flight must keep reusing one
// segment instead of allocating as it goes.
func TestRingSteadyStateAllocs(t *testing.T) {
	q := newRing(defaultChanCap, 0)
	stream := func() {
		for i := 0; i < 10000; i += 2 {
			q.push(seqMsg(i))
			q.push(seqMsg(i + 1))
			q.pop()
			q.pop()
		}
	}
	stream() // the pair's first segment(s)
	first := q.tseg
	if allocs := testing.AllocsPerRun(5, stream); allocs != 0 {
		t.Errorf("10,000-message stream with 2 in flight allocated %.0f objects, want 0", allocs)
	}
	if q.tseg != first || q.hseg != first {
		t.Error("steady-state stream moved to a new segment")
	}
	if len(first.buf) > 4 {
		t.Errorf("two messages in flight grew the ring to %d slots", len(first.buf))
	}
}

// TestRingFFRecvFullBufferPushback drives ffRecv's stale-traffic path with
// the conductor as both endpoints: a pushed-back head plus a full buffer
// ahead of the conducted message. The displaced ring head must land in the
// pushback slot and the pair must still drain in FIFO order.
func TestRingFFRecvFullBufferPushback(t *testing.T) {
	cost := unitCost
	cost.chanCap = 2
	c, err := NewCluster(2, cost)
	if err != nil {
		t.Fatal(err)
	}
	dst := &Rank{cluster: c, id: 1}
	q := c.pairOf(0, 1)
	stale := func(i int) message {
		return message{data: []float64{float64(i)}, arrival: float64(i)}
	}
	dst.pushback = map[int]message{0: stale(0)}
	if !q.push(stale(1)) || !q.push(stale(2)) || q.push(stale(-1)) {
		t.Fatal("could not fill the pair to exactly chanCap")
	}
	payload := []float64{3}
	got := ffRecv(dst, 0, ffWire{m: message{data: payload, arrival: 3}, q: q, shared: true})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("ffRecv delivered %v, want the pushed-back head [0]", got)
	}
	if m, ok := dst.pushback[0]; !ok || m.data[0] != 1 {
		t.Fatalf("pushback slot holds %v (present %v), want the displaced ring head [1]", m.data, ok)
	}
	if q.length() != 2 {
		t.Fatalf("ring holds %d messages, want 2", q.length())
	}
	for want := 1; want <= 3; want++ {
		m, ok := dst.takePushback(0)
		if !ok {
			m, ok = q.pop()
		}
		if !ok || m.data[0] != float64(want) {
			t.Fatalf("drain position %d: got %v (ok %v)", want, m.data, ok)
		}
		if want == 3 && &m.data[0] == &payload[0] {
			t.Error("shared payload was enqueued without a private copy")
		}
	}
}
