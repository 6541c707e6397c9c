// Package nbody implements the direct O(n²) n-body force computation: a
// serial reference and the communication-optimal data-replicating parallel
// algorithm of Driscoll, Koanantakool, Georganas, Solomonik and Yelick that
// the paper analyzes in Section IV.
//
// The parallel algorithm arranges p ranks as c teams of k = p/c ranks.
// Particles are split into k blocks of n/k bodies; every team holds a full
// copy of its column's block (the c-fold replication that buys the paper's
// perfect strong scaling). Each team then runs k/c ring-shift steps over a
// disjoint range of source blocks, and the partial forces on each block are
// summed across teams. Per-rank costs are F = f·n²/p, W = Θ(n²/(p·M)) with
// M = Θ(c·n/p) — exactly the Section IV expressions.
package nbody

import (
	"fmt"
	"math"
	"math/rand"

	"perfscale/internal/sim"
)

// WordsPerBody is the storage per body: x, y, z, mass.
const WordsPerBody = 4

// Softening is the Plummer softening added to squared distances so
// coincident bodies do not produce infinities.
const Softening = 1e-3

// FlopsPerPair is the f of the paper's model for this interaction kernel:
// 3 subtractions, 7 ops for the softened squared distance, 3 for the
// inverse-cube factor (sqrt, multiply, divide), and 6 multiply-adds to
// accumulate the force components.
const FlopsPerPair = 19

// Bodies is a flat slice of bodies with stride WordsPerBody.
type Bodies []float64

// N returns the number of bodies.
func (b Bodies) N() int { return len(b) / WordsPerBody }

// Body returns the position and mass of body i.
func (b Bodies) Body(i int) (x, y, z, m float64) {
	o := i * WordsPerBody
	return b[o], b[o+1], b[o+2], b[o+3]
}

// RandomBodies returns n bodies with positions uniform in [0,1)³ and masses
// uniform in [0.5, 1.5), drawn from a deterministic generator.
func RandomBodies(n int, seed int64) Bodies {
	rng := rand.New(rand.NewSource(seed))
	b := make(Bodies, n*WordsPerBody)
	for i := 0; i < n; i++ {
		o := i * WordsPerBody
		b[o] = rng.Float64()
		b[o+1] = rng.Float64()
		b[o+2] = rng.Float64()
		b[o+3] = 0.5 + rng.Float64()
	}
	return b
}

// AccumulateForces adds to dst (length 3·targets.N()) the softened
// gravitational force per unit mass exerted on each target body by every
// source body. When skipEqualIndex is true, the pair (i, i) is skipped —
// used when targets and sources are the same block. It returns the number
// of pair interactions evaluated.
func AccumulateForces(dst []float64, targets, sources Bodies, skipEqualIndex bool) int {
	nt, ns := targets.N(), sources.N()
	if len(dst) != 3*nt {
		panic(fmt.Sprintf("nbody: dst length %d != 3·%d", len(dst), nt))
	}
	pairs := 0
	for i := 0; i < nt; i++ {
		xi, yi, zi, _ := targets.Body(i)
		var fx, fy, fz float64
		for j := 0; j < ns; j++ {
			if skipEqualIndex && i == j {
				continue
			}
			xj, yj, zj, mj := sources.Body(j)
			dx, dy, dz := xj-xi, yj-yi, zj-zi
			r2 := dx*dx + dy*dy + dz*dz + Softening*Softening
			inv := 1 / (r2 * math.Sqrt(r2))
			s := mj * inv
			fx += s * dx
			fy += s * dy
			fz += s * dz
			pairs++
		}
		dst[3*i] += fx
		dst[3*i+1] += fy
		dst[3*i+2] += fz
	}
	return pairs
}

// SerialForces computes the forces on every body against every other —
// the verification baseline.
func SerialForces(b Bodies) []float64 {
	f := make([]float64, 3*b.N())
	AccumulateForces(f, b, b, true)
	return f
}

// RunResult bundles the assembled forces with the simulation statistics.
type RunResult struct {
	// Forces holds 3 components per body, in body order.
	Forces []float64
	// Sim holds per-rank counters and virtual clocks.
	Sim *sim.Result
}

// Replicated computes all forces on p ranks with replication factor c.
// Requirements: p ≥ 1, c ≥ 1, c divides p, c divides k = p/c (each team must cover
// an integer number of shift steps), and k divides the body count.
// c = 1 is the classical ring algorithm (M = n/p); c = √p is the fully
// replicated 2D limit (M = n/√p).
func Replicated(cost sim.Cost, p, c int, bodies Bodies) (*RunResult, error) {
	n := bodies.N()
	if p < 1 {
		return nil, fmt.Errorf("nbody: p = %d ranks, need at least 1", p)
	}
	if c < 1 || p%c != 0 {
		return nil, fmt.Errorf("nbody: replication %d must divide p = %d", c, p)
	}
	k := p / c
	if k%c != 0 {
		return nil, fmt.Errorf("nbody: c = %d must divide the ring size k = %d (c² | p)", c, k)
	}
	if n%k != 0 {
		return nil, fmt.Errorf("nbody: %d bodies not divisible by ring size %d", n, k)
	}
	blockBodies := n / k
	blockWords := blockBodies * WordsPerBody
	forceWords := 3 * blockBodies
	stepsPerTeam := k / c

	// Rank layout: rank = team·k + position. Teams are the replicas; the
	// "column" communicator of position j spans the c replicas of block j.
	rankAt := func(team, pos int) int { return team*k + pos }
	results := make([][]float64, k)

	res, err := sim.Run(p, cost, func(r *sim.Rank) error {
		team := r.ID() / k
		pos := r.ID() % k
		ring, err := ringComm(r, team, k, rankAt)
		if err != nil {
			return err
		}
		column, err := columnComm(r, pos, c, k, rankAt)
		if err != nil {
			return err
		}
		// Resident + traveling block + force accumulator.
		r.Alloc(2*blockWords + forceWords)

		// Replicate block `pos` from team 0 down the column.
		r.Phase("replicate")
		var resident []float64
		if team == 0 {
			resident = bodies[pos*blockWords : (pos+1)*blockWords]
		}
		resident = column.BcastLarge(0, resident)

		// Team `team` handles source blocks pos+team·(k/c)+t, t ∈ [0, k/c).
		// The traveling copy starts team·(k/c) positions ahead: fetch it
		// with a single shift by that offset, then shift by one each step.
		r.Phase("force-shift")
		traveling := ring.Shift(resident, -team*stepsPerTeam)
		forces := make([]float64, forceWords)
		for t := 0; t < stepsPerTeam; t++ {
			srcIdx := (pos + team*stepsPerTeam + t) % k
			pairs := AccumulateForces(forces, Bodies(resident), Bodies(traveling), srcIdx == pos)
			r.Compute(FlopsPerPair * float64(pairs))
			if t < stepsPerTeam-1 {
				traveling = ring.Shift(traveling, -1)
			}
		}

		// Sum the per-team partial forces for block `pos` onto team 0.
		r.Phase("reduce")
		total := column.ReduceLarge(0, forces, sim.OpSum)
		if team == 0 {
			results[pos] = total
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	forces := make([]float64, 3*n)
	for pos, blk := range results {
		copy(forces[pos*forceWords:(pos+1)*forceWords], blk)
	}
	return &RunResult{Forces: forces, Sim: res}, nil
}

// ringComm builds the team's ring communicator (fixed team, all positions).
func ringComm(r *sim.Rank, team, k int, rankAt func(int, int) int) (*sim.Comm, error) {
	members := make([]int, k)
	for pos := 0; pos < k; pos++ {
		members[pos] = rankAt(team, pos)
	}
	return r.NewComm(members)
}

// columnComm builds the replica communicator of one block position (all
// teams, fixed position), ordered by team.
func columnComm(r *sim.Rank, pos, c, k int, rankAt func(int, int) int) (*sim.Comm, error) {
	members := make([]int, c)
	for team := 0; team < c; team++ {
		members[team] = rankAt(team, pos)
	}
	return r.NewComm(members)
}

// MaxAbsDiff returns the largest componentwise difference between two force
// arrays.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("nbody: force lengths differ: %d vs %d", len(a), len(b)))
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
