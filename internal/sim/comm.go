package sim

import (
	"fmt"
	"slices"
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
	c.members = slices.Clone(members)
	return c, nil
}

// newCommTrusted is NewComm without the duplicate scan and the defensive
// copy, for generated member lists whose construction makes duplicates
// impossible and whose ownership passes to the Comm (grid rows, columns and
// fibers). The duplicate scan is quadratic in the member count;
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

// ReduceOp combines src into dst elementwise; len(dst) == len(src).
type ReduceOp func(dst, src []float64)

// OpSum is elementwise addition, the reduction used by every algorithm in
// the paper (matmul partial products, n-body force accumulation).
func OpSum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
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
		return private(data)
	}
	// Unlike the tree collectives, a shift is already pairwise: conducting
	// it through a fast-forward rendezvous would park all s members behind
	// one conductor, where the direct send+recv parks a member only when
	// its source genuinely hasn't run yet. Every member takes this branch
	// or none do (the decision depends only on the op), so the per-pair
	// FIFO streams stay aligned with the conducted collectives around it.
	c.rank.Send(c.members[(c.me+by)%p], data)
	return c.rank.Recv(c.members[(c.me-by+p)%p])
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
	c.rank.send(c.members[(c.me+by)%p], data, true)
	return c.rank.Recv(c.members[(c.me-by+p)%p])
}

// Bcast broadcasts root's data to every member over a binomial tree
// (⌈log2 p⌉ rounds). It returns the received buffer on non-roots and a copy
// of data on the root.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	return c.conduct(ffBcast, ffCall{data: data, arg: root})
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
	return c.conduct(ffReduce, ffCall{data: data, arg: root, rop: op})
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
	return c.conduct(ffAllToAll, ffCall{data: data})
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
	return c.conduct(ffAllToAllTree, ffCall{data: data})
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
// (the test oracle of the collectives ignores it).
func (c *Comm) BcastLargeInto(dst []float64, root int, data []float64) []float64 {
	// Conducted as one composite rendezvous: announcement, scatter and
	// all-gather cost a member one park instead of three-plus.
	return c.conduct(ffBcastLarge, ffCall{data: data, dst: dst, arg: root})
}

// ReduceLarge reduces every member's data onto root with the
// bandwidth-optimal reduce-scatter + gather algorithm: ≈ 2·len(data) words
// per rank independent of p, versus the binomial tree's log(p)·len(data) at
// the root. Returns the reduction on root, nil elsewhere. Falls back to the
// binomial Reduce when the payload is too small to split evenly.
func (c *Comm) ReduceLarge(root int, data []float64, op ReduceOp) []float64 {
	return c.conduct(c.reduceLargeOp(len(data)), ffCall{data: data, arg: root, rop: op})
}

// reduceLargeOp is the collective ReduceLarge runs for n words: the
// binomial Reduce when n does not split evenly over the members.
func (c *Comm) reduceLargeOp(n int) uint8 {
	if p := len(c.members); n < p || n%p != 0 {
		return ffReduce
	}
	return ffReduceLarge
}
