package sim

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered subgroup of ranks that perform
// collectives together. Collectives must be called by every member of the
// communicator in the same order, exactly like MPI. Distinct collectives on
// the same communicator are kept apart by the per-pair FIFO ordering of the
// underlying channels.
type Comm struct {
	rank    *Rank
	members []int // global rank ids
	me      int   // index of rank in members

	// ffID memoizes the engine's id for this membership, the rendezvous
	// key of conducted collectives (see eventEngine.membID); 0 = unset.
	ffID uint32
}

// World returns the communicator containing every rank of the cluster.
func (r *Rank) World() *Comm {
	members := make([]int, r.P())
	for i := range members {
		members[i] = i
	}
	return &Comm{rank: r, members: members, me: r.id}
}

// NewComm builds a communicator over the given global rank ids. The calling
// rank must appear in members exactly once; every member must construct the
// communicator with an identical members slice.
func (r *Rank) NewComm(members []int) (*Comm, error) {
	c, err := r.newCommOwned(members)
	if err != nil {
		return nil, err
	}
	cp := make([]int, len(members))
	copy(cp, members)
	c.members = cp
	return c, nil
}

// newCommOwned is NewComm without the defensive copy, for constructors
// (grid helpers, Split) that build the member slice themselves and hand
// over ownership. Algorithms build a handful of communicators per rank,
// so at p = 16384 the copies — and NewComm's old per-call validation
// map, ~1.5 KB each — were a measurable slice of a whole run's garbage.
func (r *Rank) newCommOwned(members []int) (*Comm, error) {
	c, err := r.newCommTrusted(members)
	if err != nil {
		return nil, err
	}
	if len(members) <= 128 {
		for i, id := range members {
			for _, other := range members[:i] {
				if other == id {
					return nil, fmt.Errorf("sim: duplicate communicator member %d", id)
				}
			}
		}
	} else {
		seen := make(map[int]bool, len(members))
		for _, id := range members {
			if seen[id] {
				return nil, fmt.Errorf("sim: duplicate communicator member %d", id)
			}
			seen[id] = true
		}
	}
	return c, nil
}

// newCommTrusted is newCommOwned without the duplicate scan, for generated
// member lists whose construction makes duplicates impossible (grid rows,
// columns and fibers). The duplicate scan is quadratic in the member count;
// on a 16384-rank 2.5D run the grid helpers alone were ~100M comparisons.
func (r *Rank) newCommTrusted(members []int) (*Comm, error) {
	me := -1
	for i, id := range members {
		if id < 0 || id >= r.P() {
			return nil, fmt.Errorf("sim: communicator member %d out of range [0,%d)", id, r.P())
		}
		if id == r.id {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("sim: rank %d not a member of communicator %v", r.id, members)
	}
	return &Comm{rank: r, members: members, me: me}, nil
}

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// Me returns the caller's index within the communicator.
func (c *Comm) Me() int { return c.me }

// Member returns the global rank id of member i.
func (c *Comm) Member(i int) int { return c.members[i] }

// Rank returns the underlying rank handle.
func (c *Comm) Rank() *Rank { return c.rank }

// send/recv by communicator-local index.
func (c *Comm) send(to int, data []float64) { c.rank.Send(c.members[to], data) }
func (c *Comm) recv(from int) []float64     { return c.rank.Recv(c.members[from]) }

// ReduceOp combines src into dst elementwise; len(dst) == len(src).
type ReduceOp func(dst, src []float64)

// OpSum is elementwise addition, the reduction used by every algorithm in
// the paper (matmul partial products, n-body force accumulation).
func OpSum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// OpMax is elementwise maximum.
func OpMax(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Shift performs a cyclic shift within the communicator: every member sends
// data to the member `by` positions ahead and receives from the member `by`
// positions behind. Because the send is posted before the receive, a full
// shift costs a single αt + k·βt step of virtual time.
func (c *Comm) Shift(data []float64, by int) []float64 {
	p := len(c.members)
	by = ((by % p) + p) % p
	if by == 0 {
		cp := make([]float64, len(data))
		copy(cp, data)
		return cp
	}
	// Unlike the tree collectives, a shift is already pairwise: conducting
	// it through a fast-forward rendezvous would park all s members behind
	// one conductor, where the direct send+recv parks a member only when
	// its source genuinely hasn't run yet. Every member takes this branch
	// or none do (the decision depends only on the op), so the per-pair
	// FIFO streams stay aligned with the conducted collectives around it.
	dst := (c.me + by) % p
	src := (c.me - by + p) % p
	c.send(dst, data)
	return c.recv(src)
}

// ShiftOwned is Shift with ownership transfer: the caller surrenders data
// to the communicator, which may forward the buffer without the defensive
// copy Send otherwise pays. data must not be read or written after the
// call. Virtual time, counters and the received values are identical to
// Shift — the copy was never observable — but the inner loops of the
// Cannon-style algorithms, which shift a buffer they are about to
// overwrite anyway, shed one allocation and copy per step per rank.
func (c *Comm) ShiftOwned(data []float64, by int) []float64 {
	p := len(c.members)
	by = ((by % p) + p) % p
	if by == 0 {
		return data
	}
	dst := (c.me + by) % p
	src := (c.me - by + p) % p
	c.rank.sendOwned(c.members[dst], data)
	return c.recv(src)
}

// Bcast broadcasts root's data to every member over a binomial tree
// (⌈log2 p⌉ rounds). It returns the received buffer on non-roots and a copy
// of data on the root.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p := len(c.members)
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffBcast, ffCall{data: data, arg: root})
	}
	// Rotate indices so the root is virtual index 0.
	vme := (c.me - root + p) % p
	var buf []float64
	if vme == 0 {
		buf = make([]float64, len(data))
		copy(buf, data)
	} else {
		// Receive from parent: clear the lowest set bit of vme.
		parent := vme & (vme - 1)
		buf = c.recv((parent + root) % p)
	}
	// Send to children: set each bit above the lowest set bit of vme while
	// the resulting index is in range. For vme==0 the "lowest set bit"
	// boundary is the full width.
	low := vme & -vme
	if vme == 0 {
		low = nextPow2(p)
	}
	for bit := low >> 1; bit > 0; bit >>= 1 {
		child := vme | bit
		if child != vme && child < p {
			c.send((child+root)%p, buf)
		}
	}
	return buf
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	v := 1
	for v < n {
		v <<= 1
	}
	return v
}

// Reduce combines every member's data with op over a binomial tree and
// returns the full reduction on root (nil elsewhere). All members must pass
// equal-length slices. The caller's data is not modified.
func (c *Comm) Reduce(root int, data []float64, op ReduceOp) []float64 {
	p := len(c.members)
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffReduce, ffCall{data: data, arg: root, rop: op})
	}
	vme := (c.me - root + p) % p
	acc := make([]float64, len(data))
	copy(acc, data)
	// Reverse binomial tree: in round k (bit = 1<<k), members with that bit
	// set send their accumulator to vme&^bit and exit.
	for bit := 1; bit < p; bit <<= 1 {
		if vme&bit != 0 {
			c.send(((vme&^bit)+root)%p, acc)
			return nil
		}
		partner := vme | bit
		if partner < p {
			contrib := c.recv((partner + root) % p)
			if len(contrib) != len(acc) {
				panic(fmt.Sprintf("sim: reduce length mismatch: %d vs %d", len(contrib), len(acc)))
			}
			c.rank.Compute(float64(len(acc))) // one op per element to combine
			op(acc, contrib)
		}
	}
	if vme == 0 {
		return acc
	}
	return nil
}

// AllReduce combines every member's data with op and returns the result on
// every member (reduce to member 0, then broadcast).
func (c *Comm) AllReduce(data []float64, op ReduceOp) []float64 {
	red := c.Reduce(0, data, op)
	if c.me == 0 {
		return c.Bcast(0, red)
	}
	return c.Bcast(0, nil)
}

// AllGather concatenates every member's equal-length block in member order
// and returns the concatenation on every member. It uses the ring algorithm:
// p−1 steps, each moving one block, for a total of (p−1)·k words per member.
func (c *Comm) AllGather(block []float64) []float64 {
	p := len(c.members)
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffAllGather, ffCall{data: block})
	}
	k := len(block)
	out := make([]float64, p*k)
	copy(out[c.me*k:(c.me+1)*k], block)
	if p == 1 {
		return out
	}
	cur := make([]float64, k)
	copy(cur, block)
	next := (c.me + 1) % p
	prev := (c.me - 1 + p) % p
	for step := 0; step < p-1; step++ {
		c.send(next, cur)
		cur = c.recv(prev)
		owner := (c.me - 1 - step + 2*p) % p
		copy(out[owner*k:(owner+1)*k], cur)
	}
	return out
}

// ReduceScatter reduces p equal blocks elementwise and leaves block i on
// member i. data must have length p·k. It uses the ring algorithm: p−1
// steps of k words each.
func (c *Comm) ReduceScatter(data []float64, op ReduceOp) []float64 {
	p := len(c.members)
	if len(data)%p != 0 {
		panic(fmt.Sprintf("sim: ReduceScatter length %d not divisible by %d", len(data), p))
	}
	k := len(data) / p
	if p == 1 {
		out := make([]float64, k)
		copy(out, data)
		return out
	}
	if e := c.ffEngine(); e != nil {
		return e.ffRun(c, ffReduceScatter, ffCall{data: data, rop: op})
	}
	acc := make([]float64, len(data))
	copy(acc, data)
	next := (c.me + 1) % p
	prev := (c.me - 1 + p) % p
	// Block b travels forward around the ring starting at member b+1, so
	// that member b receives it last, fully reduced: at step s, member i
	// sends block i−1−s and accumulates into block i−2−s.
	for step := 0; step < p-1; step++ {
		sendBlock := (c.me - 1 - step + 2*p) % p
		c.send(next, acc[sendBlock*k:(sendBlock+1)*k])
		incoming := c.recv(prev)
		recvBlock := (c.me - 2 - step + 3*p) % p
		c.rank.Compute(float64(k))
		op(acc[recvBlock*k:(recvBlock+1)*k], incoming)
	}
	out := make([]float64, k)
	copy(out, acc[c.me*k:(c.me+1)*k])
	return out
}

// AllToAll performs the naive personalized all-to-all: every member sends
// block j of data directly to member j. data must have length p·k; the
// result holds block i received from member i. Costs p−1 messages and
// (p−1)·k words per member — the paper's "naive implementation" with
// W = n/p, S = p.
func (c *Comm) AllToAll(data []float64) []float64 {
	p := len(c.members)
	if len(data)%p != 0 {
		panic(fmt.Sprintf("sim: AllToAll length %d not divisible by %d", len(data), p))
	}
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffAllToAll, ffCall{data: data})
	}
	k := len(data) / p
	out := make([]float64, len(data))
	copy(out[c.me*k:(c.me+1)*k], data[c.me*k:(c.me+1)*k])
	// Exchange with partner me^... for any p: schedule (me+s) pattern.
	for s := 1; s < p; s++ {
		dst := (c.me + s) % p
		src := (c.me - s + p) % p
		c.send(dst, data[dst*k:(dst+1)*k])
		blk := c.recv(src)
		copy(out[src*k:(src+1)*k], blk)
	}
	return out
}

// AllToAllTree performs the Bruck-style logarithmic all-to-all: ⌈log2 p⌉
// rounds, each moving about half the buffer. Costs S = ⌈log2 p⌉ messages and
// W ≈ (k·p/2)·log2 p words per member — the paper's tree-based all-to-all
// with W = (n/p)·log p, S = log p. data must have length p·k.
func (c *Comm) AllToAllTree(data []float64) []float64 {
	p := len(c.members)
	if len(data)%p != 0 {
		panic(fmt.Sprintf("sim: AllToAllTree length %d not divisible by %d", len(data), p))
	}
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffAllToAllTree, ffCall{data: data})
	}
	k := len(data) / p
	// Phase 1: local rotation so block for member (me+j)%p sits at slot j.
	buf := make([]float64, len(data))
	for j := 0; j < p; j++ {
		srcBlock := (c.me + j) % p
		copy(buf[j*k:(j+1)*k], data[srcBlock*k:(srcBlock+1)*k])
	}
	// Phase 2: for each bit, send all slots whose index has that bit set to
	// the member 2^bit ahead.
	for bit := 1; bit < p; bit <<= 1 {
		var slots []int
		for j := 0; j < p; j++ {
			if j&bit != 0 {
				slots = append(slots, j)
			}
		}
		send := make([]float64, 0, len(slots)*k)
		for _, j := range slots {
			send = append(send, buf[j*k:(j+1)*k]...)
		}
		dst := (c.me + bit) % p
		src := (c.me - bit + p) % p
		recv := c.rank.SendRecv(c.members[dst], send, c.members[src])
		for i, j := range slots {
			copy(buf[j*k:(j+1)*k], recv[i*k:(i+1)*k])
		}
	}
	// Phase 3: inverse rotation. After phase 2, slot j holds the block sent
	// by member (me-j)%p; place it at block index (me-j)%p.
	out := make([]float64, len(data))
	for j := 0; j < p; j++ {
		srcMember := (c.me - j + p) % p
		copy(out[srcMember*k:(srcMember+1)*k], buf[j*k:(j+1)*k])
	}
	return out
}

// Barrier synchronizes the communicator via a zero-word reduce+broadcast,
// costing 2·⌈log2 p⌉ message latencies — synchronization through messages,
// as the paper's model requires.
func (c *Comm) Barrier() {
	c.AllReduce([]float64{}, OpSum)
}

// Gather collects every member's equal-length chunk on root, in member
// order; returns nil on non-roots. Each non-root sends its chunk directly
// to the root.
func (c *Comm) Gather(root int, chunk []float64) []float64 {
	p := len(c.members)
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffGather, ffCall{data: chunk, arg: root})
	}
	if c.me != root {
		c.send(root, chunk)
		return nil
	}
	out := make([]float64, p*len(chunk))
	copy(out[root*len(chunk):(root+1)*len(chunk)], chunk)
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		blk := c.recv(i)
		copy(out[i*len(blk):(i+1)*len(blk)], blk)
	}
	return out
}

// BcastLarge broadcasts root's data with the bandwidth-optimal
// scatter+allgather algorithm: the root scatters p chunks, then a ring
// all-gather reassembles the full buffer everywhere. Every rank (including
// the root) sends ≈ len(data) words total, independent of p — the
// collective the 2.5D algorithm's replication step needs for its
// W = n²/√(cp) bound. Falls back to the binomial Bcast when the payload is
// too small to split evenly.
func (c *Comm) BcastLarge(root int, data []float64) []float64 {
	return c.BcastLargeInto(nil, root, data)
}

// BcastLargeInto is BcastLarge receiving append-style: the result may use
// dst's storage when its capacity suffices, so use the returned slice, and
// dst must not overlap data. A loop of broadcasts whose results are read
// and dropped — SUMMA's panels — passes the previous result and stops
// allocating one buffer per step. Virtual time, counters and the received
// values are BcastLarge's; whether dst is used is not part of the contract
// (the member-by-member route ignores it).
func (c *Comm) BcastLargeInto(dst []float64, root int, data []float64) []float64 {
	p := len(c.members)
	if p == 1 {
		return c.Bcast(root, data)
	}
	if e := c.ffEngine(); e != nil {
		// Conducted as one composite rendezvous: announcement, scatter and
		// all-gather cost a member one park instead of three-plus.
		return e.ffRun(c, ffBcastLarge, ffCall{data: data, dst: dst, arg: root})
	}
	var k int
	if c.me == root {
		k = len(data)
		if k < p || k%p != 0 {
			k = -1
		}
	}
	// Everyone must agree on the path; the root announces the chunk size.
	kBuf := c.Bcast(root, []float64{float64(k)})
	k = int(kBuf[0])
	if k < 0 {
		return c.Bcast(root, data)
	}
	chunk := k / p
	// Scatter: root sends member i its chunk.
	var mine []float64
	if c.me == root {
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			c.send(i, data[i*chunk:(i+1)*chunk])
		}
		mine = make([]float64, chunk)
		copy(mine, data[root*chunk:(root+1)*chunk])
	} else {
		mine = c.recv(root)
	}
	return c.AllGather(mine)
}

// ReduceLarge reduces every member's data onto root with the
// bandwidth-optimal reduce-scatter + gather algorithm: ≈ 2·len(data) words
// per rank independent of p, versus the binomial tree's log(p)·len(data) at
// the root. Returns the reduction on root, nil elsewhere. Falls back to the
// binomial Reduce when the payload is too small to split evenly.
func (c *Comm) ReduceLarge(root int, data []float64, op ReduceOp) []float64 {
	p := len(c.members)
	if p == 1 || len(data) < p || len(data)%p != 0 {
		return c.Reduce(root, data, op)
	}
	if e := c.ffEngine(); e != nil {
		return e.ffRun(c, ffReduceLarge, ffCall{data: data, arg: root, rop: op})
	}
	chunk := c.ReduceScatter(data, op)
	gathered := c.Gather(root, chunk)
	return gathered
}

// Scatter distributes root's data in equal chunks: member i receives chunk
// i. data must have length p·k on the root (ignored elsewhere); every
// member gets its own k-word chunk back.
func (c *Comm) Scatter(root int, data []float64) []float64 {
	p := len(c.members)
	if c.me == root && len(data)%p != 0 {
		panic(fmt.Sprintf("sim: Scatter length %d not divisible by %d", len(data), p))
	}
	if e := c.ffEngine(); e != nil && p > 1 {
		return e.ffRun(c, ffScatter, ffCall{data: data, arg: root})
	}
	if c.me == root {
		k := len(data) / p
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			c.send(i, data[i*k:(i+1)*k])
		}
		out := make([]float64, k)
		copy(out, data[root*k:(root+1)*k])
		return out
	}
	return c.recv(root)
}

// Split partitions the communicator by color, MPI_Comm_split-style: members
// sharing a color form a new communicator ordered by key (ties broken by
// current rank order). Every member must call Split with its own color/key;
// the membership exchange costs one all-gather of two words per member.
func (c *Comm) Split(color, key int) (*Comm, error) {
	info := c.AllGather([]float64{float64(color), float64(key)})
	type entry struct{ member, color, key int }
	var mine []entry
	for i := 0; i < len(c.members); i++ {
		col := int(info[2*i])
		if col == color {
			mine = append(mine, entry{member: i, color: col, key: int(info[2*i+1])})
		}
	}
	sort.Slice(mine, func(a, b int) bool {
		if mine[a].key != mine[b].key {
			return mine[a].key < mine[b].key
		}
		return mine[a].member < mine[b].member
	})
	members := make([]int, len(mine))
	for i, e := range mine {
		members[i] = c.members[e.member]
	}
	return c.rank.newCommOwned(members)
}
