package sim

import "fmt"

// The collective oracle: every collective run member by member on Send,
// Recv and Compute, each member executing its own side of the schedule on
// its own stack. It is the reference the conductor (comm_ff.go) is held to
// (TestConductorOracleParity) and the route that wires every pair it uses
// with a real ring (TestConductedPairUpgrade). Being plain point-to-point
// programs, its bodies take every fault the plan rolls the way Send and
// Recv take it.

// send/recv by communicator-local index.
func (c *Comm) send(to int, data []float64) { c.rank.Send(c.members[to], data) }
func (c *Comm) recv(from int) []float64     { return c.rank.Recv(c.members[from]) }

// oracleBcast is Comm.Bcast: a binomial tree (⌈log2 p⌉ rounds) rooted at
// root.
func oracleBcast(c *Comm, root int, data []float64) []float64 {
	p := len(c.members)
	// Rotate indices so the root is virtual index 0.
	vme := (c.me - root + p) % p
	var buf []float64
	if vme == 0 {
		buf = private(data)
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

// oracleReduce is Comm.Reduce: a reverse binomial tree onto root.
func oracleReduce(c *Comm, root int, data []float64, op ReduceOp) []float64 {
	p := len(c.members)
	vme := (c.me - root + p) % p
	acc := private(data)
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
			combine(op, acc, contrib)
		}
	}
	if vme == 0 {
		return acc
	}
	return nil
}

// oracleAllReduce is Comm.AllReduce: reduce to member 0, then broadcast.
func oracleAllReduce(c *Comm, data []float64, op ReduceOp) []float64 {
	red := oracleReduce(c, 0, data, op)
	if c.me == 0 {
		return oracleBcast(c, 0, red)
	}
	return oracleBcast(c, 0, nil)
}

// oracleAllGather is BcastLarge's all-gather phase: the ring, p−1 steps of
// one block.
func oracleAllGather(c *Comm, block []float64) []float64 {
	p := len(c.members)
	k := len(block)
	out := assembly(nil, p*k, block)
	put(out[c.me*k:(c.me+1)*k], block)
	cur := private(block)
	next := (c.me + 1) % p
	prev := (c.me - 1 + p) % p
	for step := 0; step < p-1; step++ {
		c.send(next, cur)
		cur = c.recv(prev)
		owner := (c.me - 1 - step + 2*p) % p
		put(out[owner*k:(owner+1)*k], cur)
	}
	return out
}

// oracleReduceScatter is ReduceLarge's reduce-scatter phase: the ring, p−1
// steps of k words, after which member i holds reduced block i.
func oracleReduceScatter(c *Comm, data []float64, op ReduceOp) []float64 {
	p := len(c.members)
	k := len(data) / p
	acc := private(data)
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
		combine(op, acc[recvBlock*k:(recvBlock+1)*k], incoming)
	}
	return private(acc[c.me*k : (c.me+1)*k])
}

// oracleAllToAll is Comm.AllToAll: the naive personalized exchange.
func oracleAllToAll(c *Comm, data []float64) []float64 {
	p := len(c.members)
	if len(data)%p != 0 {
		panic(fmt.Sprintf("sim: AllToAll length %d not divisible by %d", len(data), p))
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

// oracleAllToAllTree is Comm.AllToAllTree: Bruck's logarithmic all-to-all.
func oracleAllToAllTree(c *Comm, data []float64) []float64 {
	p := len(c.members)
	if len(data)%p != 0 {
		panic(fmt.Sprintf("sim: AllToAllTree length %d not divisible by %d", len(data), p))
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

// oracleGather is ReduceLarge's gather phase: every non-root sends its chunk
// to the root.
func oracleGather(c *Comm, root int, chunk []float64) []float64 {
	p := len(c.members)
	if c.me != root {
		c.send(root, chunk)
		return nil
	}
	out := assembly(nil, p*len(chunk), chunk)
	put(out[root*len(chunk):(root+1)*len(chunk)], chunk)
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		blk := c.recv(i)
		put(out[i*len(blk):(i+1)*len(blk)], blk)
	}
	return out
}

// oracleBcastLargeInto is Comm.BcastLargeInto: the root announces the
// chunk size over a binomial bcast, scatters, and a ring all-gather
// reassembles; a payload too small to split falls back to the binomial
// bcast. It never uses dst.
func oracleBcastLargeInto(c *Comm, _ []float64, root int, data []float64) []float64 {
	p := len(c.members)
	if p == 1 {
		return oracleBcast(c, root, data)
	}
	var k int
	if c.me == root {
		k = len(data)
		if k < p || k%p != 0 {
			k = -1
		}
	}
	// Everyone must agree on the path; the root announces the chunk size.
	kBuf := oracleBcast(c, root, []float64{float64(k)})
	k = int(kBuf[0])
	if k < 0 {
		return oracleBcast(c, root, data)
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
		mine = private(data[root*chunk : (root+1)*chunk])
	} else {
		mine = c.recv(root)
	}
	return oracleAllGather(c, mine)
}

// oracleReduceLarge is Comm.ReduceLarge: a ring reduce-scatter, then a
// direct gather onto the root, with the binomial Reduce as the
// small-payload fallback.
func oracleReduceLarge(c *Comm, root int, data []float64, op ReduceOp) []float64 {
	p := len(c.members)
	if p == 1 || len(data) < p || len(data)%p != 0 {
		return oracleReduce(c, root, data, op)
	}
	chunk := oracleReduceScatter(c, data, op)
	gathered := oracleGather(c, root, chunk)
	return gathered
}

// collectiveSet is one implementation of every collective, as functions of
// the communicator, so a test program can run on either.
type collectiveSet struct {
	name           string
	Bcast          func(c *Comm, root int, data []float64) []float64
	Reduce         func(c *Comm, root int, data []float64, op ReduceOp) []float64
	AllReduce      func(c *Comm, data []float64, op ReduceOp) []float64
	AllToAll       func(c *Comm, data []float64) []float64
	AllToAllTree   func(c *Comm, data []float64) []float64
	BcastLargeInto func(c *Comm, dst []float64, root int, data []float64) []float64
	ReduceLarge    func(c *Comm, root int, data []float64, op ReduceOp) []float64
}

// conductor is the production collectives; oracle is the reference above.
var (
	conductor = collectiveSet{name: "conductor",
		Bcast: (*Comm).Bcast, Reduce: (*Comm).Reduce, AllReduce: (*Comm).AllReduce,
		AllToAll: (*Comm).AllToAll, AllToAllTree: (*Comm).AllToAllTree,
		BcastLargeInto: (*Comm).BcastLargeInto, ReduceLarge: (*Comm).ReduceLarge}
	oracle = collectiveSet{name: "oracle",
		Bcast: oracleBcast, Reduce: oracleReduce, AllReduce: oracleAllReduce,
		AllToAll: oracleAllToAll, AllToAllTree: oracleAllToAllTree,
		BcastLargeInto: oracleBcastLargeInto, ReduceLarge: oracleReduceLarge}
)
