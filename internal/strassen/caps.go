package strassen

import (
	"fmt"
	"strings"

	"perfscale/internal/matrix"
	"perfscale/internal/sim"
)

// RunResult bundles the assembled product with simulation statistics.
type RunResult struct {
	C   *matrix.Dense
	Sim *sim.Result
}

// A step of the CAPS schedule: BFS splits the group of ranks across the 7
// subproblems (parallel, more memory); DFS keeps the whole group on each
// subproblem in turn (sequential, less memory, more redistribution
// traffic). CAPS interleaves them to run within whatever memory exists —
// the paper's FLM regime; BFS-only is the unlimited-memory FUM regime.
const (
	bfsStep byte = 'B'
	dfsStep byte = 'D'
)

// CAPS multiplies A·B on p = 7^k ranks with the BFS-only (unlimited
// memory, Eq. 14) schedule. See CAPSSchedule for the general form.
func CAPS(cost sim.Cost, k int, a, b *matrix.Dense, cutoff int) (*RunResult, error) {
	if k < 0 {
		return nil, fmt.Errorf("strassen: negative recursion depth %d", k)
	}
	return CAPSSchedule(cost, strings.Repeat("B", k), a, b, cutoff)
}

// CheckCAPS returns the error CAPS would fail with on n×n operands at
// recursion depth k, without running anything: every level's quadrant must
// split evenly over its group of ranks.
func CheckCAPS(n, k int) error {
	if k < 0 {
		return fmt.Errorf("strassen: negative recursion depth %d", k)
	}
	p := 1
	for i := 0; i < k; i++ {
		p *= 7
	}
	return checkDivisibility(n, strings.Repeat("B", k), p)
}

// CAPSSchedule multiplies A·B with a CAPS-style parallel Strassen whose
// recursion follows the given schedule string: one Strassen level per
// character, 'B' for a BFS step and 'D' for a DFS step. The rank count is
// 7^(number of B steps). Matrices are kept in Morton (Z-order) layout with
// each rank holding an identical Z-range of all four quadrants, so the
// Strassen linear combinations are local and each level's subproblem
// redistribution is a contiguous-interval exchange.
//
// Memory per rank is dominated by the leaf subproblems: 3·(n/2^L)² words
// for L total levels, so prepending DFS steps divides the footprint by 4
// per step at the price of extra redistribution bandwidth — exactly the
// memory/communication tradeoff of the paper's Eq. 13.
func CAPSSchedule(cost sim.Cost, schedule string, a, b *matrix.Dense, cutoff int) (*RunResult, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return nil, fmt.Errorf("strassen: need equal square operands")
	}
	n := a.Rows
	p := 1
	for _, s := range []byte(schedule) {
		switch s {
		case bfsStep:
			p *= 7
		case dfsStep:
		default:
			return nil, fmt.Errorf("strassen: schedule %q must contain only 'B' and 'D'", schedule)
		}
	}
	if err := checkDivisibility(n, schedule, p); err != nil {
		return nil, err
	}
	if cutoff < 1 {
		cutoff = DefaultCutoff
	}

	az := DenseToZ(a)
	bz := DenseToZ(b)
	quarter := n * n / 4
	share := quarter / p

	cShares := make([][4][]float64, p)
	res, err := sim.Run(p, cost, func(r *sim.Rank) error {
		var aQ, bQ [4][]float64
		lo := r.ID() * share
		for q := 0; q < 4; q++ {
			aQ[q] = az[q*quarter+lo : q*quarter+lo+share]
			bQ[q] = bz[q*quarter+lo : q*quarter+lo+share]
		}
		r.Alloc(8 * share)
		cQ, err := capsRecurse(r, 0, p, n, aQ, bQ, cutoff, []byte(schedule))
		if err != nil {
			return err
		}
		cShares[r.ID()] = cQ
		return nil
	})
	if err != nil {
		return nil, err
	}

	cz := make([]float64, n*n)
	for rank, quads := range cShares {
		lo := rank * share
		for q := 0; q < 4; q++ {
			copy(cz[q*quarter+lo:q*quarter+lo+share], quads[q])
		}
	}
	return &RunResult{C: ZToDense(cz, n), Sim: res}, nil
}

// checkDivisibility verifies integral shares at every schedule level.
func checkDivisibility(n int, schedule string, p int) error {
	levels := len(schedule)
	if n%(1<<uint(levels+1)) != 0 {
		return fmt.Errorf("strassen: n = %d must be divisible by 2^(levels+1) = %d", n, 1<<uint(levels+1))
	}
	m, g := n, p
	for j := 0; j < levels; j++ {
		qp := m * m / 4
		h := g
		if schedule[j] == bfsStep {
			h = g / 7
		}
		if qp%g != 0 {
			return fmt.Errorf("strassen: level %d (%c): quadrant %d not divisible by group %d", j, schedule[j], qp, g)
		}
		if (qp/4)%h != 0 {
			return fmt.Errorf("strassen: level %d (%c): target shares not integral", j, schedule[j])
		}
		m, g = m/2, h
	}
	if g != 1 {
		return fmt.Errorf("strassen: schedule %q leaves groups of %d ranks at the leaves", schedule, g)
	}
	return nil
}

// strassen linear-combination tables: sign of each quadrant (indexed
// A11=0, A12=1, A21=2, A22=3) contributing to T_i (A side) and S_i (B side).
var (
	tComb = [7][4]float64{
		{1, 0, 0, 1},  // T1 = A11+A22
		{0, 0, 1, 1},  // T2 = A21+A22
		{1, 0, 0, 0},  // T3 = A11
		{0, 0, 0, 1},  // T4 = A22
		{1, 1, 0, 0},  // T5 = A11+A12
		{-1, 0, 1, 0}, // T6 = A21−A11
		{0, 1, 0, -1}, // T7 = A12−A22
	}
	sComb = [7][4]float64{
		{1, 0, 0, 1},  // S1 = B11+B22
		{1, 0, 0, 0},  // S2 = B11
		{0, 1, 0, -1}, // S3 = B12−B22
		{-1, 0, 1, 0}, // S4 = B21−B11
		{0, 0, 0, 1},  // S5 = B22
		{1, 1, 0, 0},  // S6 = B11+B12
		{0, 0, 1, 1},  // S7 = B21+B22
	}
	// cComb[q][i]: coefficient of M_{i+1} in C quadrant q.
	cComb = [4][7]float64{
		{1, 0, 0, 1, -1, 0, 1}, // C11 = M1+M4−M5+M7
		{0, 0, 1, 0, 1, 0, 0},  // C12 = M3+M5
		{0, 1, 0, 1, 0, 0, 0},  // C21 = M2+M4
		{1, -1, 1, 0, 0, 1, 0}, // C22 = M1−M2+M3+M6
	}
)

// combine evaluates a signed sum of quadrant shares and reports the flops
// spent (one op per nonzero term beyond the first, per element).
func combine(coeff [4]float64, quads [4][]float64, length int) ([]float64, float64) {
	out := make([]float64, length)
	terms := 0
	for q := 0; q < 4; q++ {
		c := coeff[q]
		if c == 0 {
			continue
		}
		terms++
		for i := 0; i < length; i++ {
			out[i] += c * quads[q][i]
		}
	}
	flops := 0.0
	if terms > 1 {
		flops = float64((terms - 1) * length)
	}
	return out, flops
}

// exchange geometry: a Z-array of qp elements is re-bucketed from g source
// ranks (contiguous slices of length qp/g at offset rl·share) to h target
// ranks (per-quadrant slices of length qp/(4h)). Senders iterate (c, tl),
// receivers (c, srcRL); both c-ascending per pair, so FIFO matching is
// deterministic.

// sendForward ships this rank's slice of a subproblem Z-array to the
// target group [tbase, tbase+h).
func sendForward(r *sim.Rank, data []float64, lo, share, qp, tbase, h int) {
	tshare := qp / 4 / h
	for c := 0; c < 4; c++ {
		for tl := 0; tl < h; tl++ {
			tlo := c*(qp/4) + tl*tshare
			thi := tlo + tshare
			ilo, ihi := maxInt(lo, tlo), minInt(lo+share, thi)
			if ilo < ihi {
				r.Send(tbase+tl, data[ilo-lo:ihi-lo])
			}
		}
	}
}

// recvForward assembles this target rank's per-quadrant slices from the
// source group [base, base+g).
func recvForward(r *sim.Rank, base, g, share, qp, tl, h int) [4][]float64 {
	tshare := qp / 4 / h
	var out [4][]float64
	for c := 0; c < 4; c++ {
		buf := make([]float64, tshare)
		tlo := c*(qp/4) + tl*tshare
		thi := tlo + tshare
		for srcRL := 0; srcRL < g; srcRL++ {
			slo, shi := srcRL*share, (srcRL+1)*share
			ilo, ihi := maxInt(slo, tlo), minInt(shi, thi)
			if ilo < ihi {
				piece := r.Recv(base + srcRL)
				copy(buf[ilo-tlo:ihi-tlo], piece)
			}
		}
		out[c] = buf
	}
	return out
}

// sendBack ships this target rank's product quadrant slices back to the
// source group [base, base+g).
func sendBack(r *sim.Rank, qC [4][]float64, base, g, share, qp, tl, h int) {
	tshare := qp / 4 / h
	for c := 0; c < 4; c++ {
		tlo := c*(qp/4) + tl*tshare
		thi := tlo + tshare
		for dstRL := 0; dstRL < g; dstRL++ {
			slo, shi := dstRL*share, (dstRL+1)*share
			ilo, ihi := maxInt(slo, tlo), minInt(shi, thi)
			if ilo < ihi {
				r.Send(base+dstRL, qC[c][ilo-tlo:ihi-tlo])
			}
		}
	}
}

// recvBack reassembles this source rank's contiguous product slice from
// the target group [tbase, tbase+h).
func recvBack(r *sim.Rank, lo, share, qp, tbase, h int) []float64 {
	tshare := qp / 4 / h
	buf := make([]float64, share)
	for c := 0; c < 4; c++ {
		for srcTL := 0; srcTL < h; srcTL++ {
			tlo := c*(qp/4) + srcTL*tshare
			thi := tlo + tshare
			ilo, ihi := maxInt(lo, tlo), minInt(lo+share, thi)
			if ilo < ihi {
				piece := r.Recv(tbase + srcTL)
				copy(buf[ilo-lo:ihi-lo], piece)
			}
		}
	}
	return buf
}

// capsRecurse runs the remaining schedule for the group [base, base+g)
// holding an m×m subproblem and returns this rank's C quadrant shares.
func capsRecurse(r *sim.Rank, base, g, m int, aQ, bQ [4][]float64, cutoff int, sched []byte) ([4][]float64, error) {
	if len(sched) == 0 {
		if g != 1 {
			return [4][]float64{}, fmt.Errorf("strassen: schedule exhausted with group size %d", g)
		}
		r.Phase("leaf")
		return capsLeaf(r, m, aQ, bQ, cutoff), nil
	}
	// Mark each schedule level (keyed by remaining depth, so names are
	// stable across the seven DFS sub-calls of one level).
	if sched[0] == bfsStep {
		r.Phase(fmt.Sprintf("bfs/%d", len(sched)))
		return capsBFS(r, base, g, m, aQ, bQ, cutoff, sched)
	}
	r.Phase(fmt.Sprintf("dfs/%d", len(sched)))
	return capsDFS(r, base, g, m, aQ, bQ, cutoff, sched)
}

// capsBFS forms all 7 subproblems and scatters them across 7 subgroups.
func capsBFS(r *sim.Rank, base, g, m int, aQ, bQ [4][]float64, cutoff int, sched []byte) ([4][]float64, error) {
	qp := m * m / 4
	share := qp / g
	h := g / 7
	rl := r.ID() - base
	lo := rl * share

	var tShares, sShares [7][]float64
	r.Alloc(14 * share)
	for i := 0; i < 7; i++ {
		var f1, f2 float64
		tShares[i], f1 = combine(tComb[i], aQ, share)
		sShares[i], f2 = combine(sComb[i], bQ, share)
		r.Compute(f1 + f2)
	}

	for pass := 0; pass < 2; pass++ {
		src := tShares
		if pass == 1 {
			src = sShares
		}
		for i := 0; i < 7; i++ {
			sendForward(r, src[i], lo, share, qp, base+i*h, h)
		}
	}
	subI := rl / h
	tl := rl % h
	tshare := qp / 4 / h
	r.Alloc(8 * tshare)
	nextA := recvForward(r, base, g, share, qp, tl, h)
	nextB := recvForward(r, base, g, share, qp, tl, h)

	qC, err := capsRecurse(r, base+subI*h, h, m/2, nextA, nextB, cutoff, sched[1:])
	if err != nil {
		return [4][]float64{}, err
	}

	sendBack(r, qC, base, g, share, qp, tl, h)
	var qShares [7][]float64
	r.Alloc(7 * share)
	for i := 0; i < 7; i++ {
		qShares[i] = recvBack(r, lo, share, qp, base+i*h, h)
	}

	cQ := combineProducts(r, qShares, share)
	r.Free(14*share + 8*tshare + 7*share)
	return cQ, nil
}

// capsDFS runs the 7 subproblems sequentially on the whole group.
func capsDFS(r *sim.Rank, base, g, m int, aQ, bQ [4][]float64, cutoff int, sched []byte) ([4][]float64, error) {
	qp := m * m / 4
	share := qp / g
	rl := r.ID() - base
	lo := rl * share
	tshare := qp / 4 / g

	var qShares [7][]float64
	// Working set per subproblem: T/S shares + received quadrant slices +
	// the recursive call's own footprint; only one subproblem lives at a
	// time — that is the DFS memory saving.
	for i := 0; i < 7; i++ {
		tData, f1 := combine(tComb[i], aQ, share)
		sData, f2 := combine(sComb[i], bQ, share)
		r.Compute(f1 + f2)
		r.Alloc(2 * share)

		sendForward(r, tData, lo, share, qp, base, g)
		sendForward(r, sData, lo, share, qp, base, g)
		r.Alloc(8 * tshare)
		nextA := recvForward(r, base, g, share, qp, rl, g)
		nextB := recvForward(r, base, g, share, qp, rl, g)

		qC, err := capsRecurse(r, base, g, m/2, nextA, nextB, cutoff, sched[1:])
		if err != nil {
			return [4][]float64{}, err
		}

		sendBack(r, qC, base, g, share, qp, rl, g)
		r.Alloc(share)
		qShares[i] = recvBack(r, lo, share, qp, base, g)
		r.Free(2*share + 8*tshare)
	}
	cQ := combineProducts(r, qShares, share)
	r.Free(7 * share)
	return cQ, nil
}

// combineProducts computes the C quadrant shares from the 7 product shares.
func combineProducts(r *sim.Rank, qShares [7][]float64, share int) [4][]float64 {
	var cQ [4][]float64
	for q := 0; q < 4; q++ {
		out := make([]float64, share)
		terms := 0
		for i := 0; i < 7; i++ {
			coeff := cComb[q][i]
			if coeff == 0 {
				continue
			}
			terms++
			for e := 0; e < share; e++ {
				out[e] += coeff * qShares[i][e]
			}
		}
		if terms > 1 {
			r.Compute(float64((terms - 1) * share))
		}
		cQ[q] = out
	}
	return cQ
}

// capsLeaf multiplies the rank's full local subproblem with serial Strassen.
func capsLeaf(r *sim.Rank, m int, aQ, bQ [4][]float64, cutoff int) [4][]float64 {
	quarter := m * m / 4
	az := make([]float64, 0, m*m)
	bz := make([]float64, 0, m*m)
	for q := 0; q < 4; q++ {
		az = append(az, aQ[q]...)
		bz = append(bz, bQ[q]...)
	}
	r.Alloc(3 * m * m)
	a := ZToDense(az, m)
	b := ZToDense(bz, m)
	c := Multiply(a, b, cutoff)
	r.Compute(Flops(m, cutoff))
	cz := DenseToZ(c)
	var cQ [4][]float64
	for q := 0; q < 4; q++ {
		cQ[q] = cz[q*quarter : (q+1)*quarter]
	}
	r.Free(3 * m * m)
	return cQ
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
