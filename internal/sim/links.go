package sim

import "fmt"

// LinkModel optionally refines the network model: per-pair latency and
// reciprocal bandwidth instead of the uniform αt/βt of Cost. The paper's
// base model assumes uniform links whose parameters stay constant as p
// grows; link models let the experiments probe that assumption (a 3D torus
// is "a perfect match" for 2.5D matmul per the paper's Section IV remark,
// and the Figure 2 machine has distinct intra- and inter-node links).
type LinkModel interface {
	// Latency returns the per-message latency between two ranks in seconds.
	Latency(src, dst int) float64
	// TimePerWord returns the per-word transfer time between two ranks.
	TimePerWord(src, dst int) float64
}

// TwoLevelLinks models the Figure 2 machine: ranks are grouped into nodes
// of CoresPerNode consecutive ranks; messages within a node use the intra
// parameters, messages between nodes the inter parameters.
type TwoLevelLinks struct {
	CoresPerNode int
	IntraAlpha   float64
	IntraBeta    float64
	InterAlpha   float64
	InterBeta    float64
}

// node returns the node index of a rank.
func (l TwoLevelLinks) node(rank int) int { return rank / l.CoresPerNode }

// Latency implements LinkModel.
func (l TwoLevelLinks) Latency(src, dst int) float64 {
	if l.node(src) == l.node(dst) {
		return l.IntraAlpha
	}
	return l.InterAlpha
}

// TimePerWord implements LinkModel.
func (l TwoLevelLinks) TimePerWord(src, dst int) float64 {
	if l.node(src) == l.node(dst) {
		return l.IntraBeta
	}
	return l.InterBeta
}

// Torus3DLinks models an X×Y×Z torus: the latency of a message grows with
// the Manhattan hop distance (with wraparound) while bandwidth stays
// constant — the simplest store-and-forward torus abstraction. Rank
// (x, y, z) = x + X·(y + Y·z).
type Torus3DLinks struct {
	X, Y, Z int
	// AlphaPerHop is the latency of one hop; BetaPerWord the uniform
	// per-word time.
	AlphaPerHop float64
	BetaPerWord float64
}

// Coords returns the torus coordinates of a rank.
func (t Torus3DLinks) Coords(rank int) (x, y, z int) {
	x = rank % t.X
	y = (rank / t.X) % t.Y
	z = rank / (t.X * t.Y)
	return
}

// Hops returns the wraparound Manhattan distance between two ranks;
// a self-message counts one hop.
func (t Torus3DLinks) Hops(src, dst int) int {
	sx, sy, sz := t.Coords(src)
	dx, dy, dz := t.Coords(dst)
	h := ringDist(sx, dx, t.X) + ringDist(sy, dy, t.Y) + ringDist(sz, dz, t.Z)
	if h == 0 {
		return 1
	}
	return h
}

func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Latency implements LinkModel.
func (t Torus3DLinks) Latency(src, dst int) float64 {
	return t.AlphaPerHop * float64(t.Hops(src, dst))
}

// TimePerWord implements LinkModel.
func (t Torus3DLinks) TimePerWord(src, dst int) float64 { return t.BetaPerWord }

// PlacedLinks composes a link model with a placement: Place[rank] is the
// physical node the logical rank occupies. It lets experiments compare a
// topology-aware placement of a process grid against a scrambled one —
// e.g. the paper's remark that a 3D torus is a perfect match for the 2.5D
// algorithm holds only when fibers and rows land on torus lines.
type PlacedLinks struct {
	Base  LinkModel
	Place []int
}

// Latency implements LinkModel.
func (p PlacedLinks) Latency(src, dst int) float64 {
	return p.Base.Latency(p.Place[src], p.Place[dst])
}

// TimePerWord implements LinkModel.
func (p PlacedLinks) TimePerWord(src, dst int) float64 {
	return p.Base.TimePerWord(p.Place[src], p.Place[dst])
}

// GridToTorusPlacement places a q×q×c process grid onto an X×Y×Z torus so
// that grid rows, columns and fibers map to torus lines: grid (row, col,
// layer) goes to torus (col, row, layer). Requires X ≥ q, Y ≥ q, Z ≥ c.
// With this placement every Cannon shift and every fiber collective of the
// 2.5D algorithm is nearest-neighbor on the torus.
func GridToTorusPlacement(g Grid3D, t Torus3DLinks) ([]int, error) {
	if t.X < g.Q || t.Y < g.Q || t.Z < g.Layers {
		return nil, fmt.Errorf("sim: grid %dx%dx%d does not embed in torus %dx%dx%d",
			g.Q, g.Q, g.Layers, t.X, t.Y, t.Z)
	}
	place := make([]int, g.Q*g.Q*g.Layers)
	for rank := range place {
		row, col, layer := g.Coords(rank)
		place[rank] = col + t.X*(row+t.Y*layer)
	}
	return place, nil
}
