package sim

import "fmt"

// Grid2D maps ranks onto a rows×cols process grid in row-major order:
// rank = row·cols + col. It is the layout of the 2D algorithms (Cannon,
// SUMMA) and of each layer of the 2.5D algorithms.
type Grid2D struct {
	Rows, Cols int
}

// Coords returns the (row, col) of a global rank.
func (g Grid2D) Coords(rank int) (row, col int) { return rank / g.Cols, rank % g.Cols }

// RankAt returns the global rank at (row, col).
func (g Grid2D) RankAt(row, col int) int { return row*g.Cols + col }

// RowComm returns the communicator of the caller's grid row.
func (g Grid2D) RowComm(r *Rank) (*Comm, error) {
	row, _ := g.Coords(r.ID())
	members := make([]int, g.Cols)
	for c := 0; c < g.Cols; c++ {
		members[c] = g.RankAt(row, c)
	}
	return r.newCommTrusted(members)
}

// ColComm returns the communicator of the caller's grid column.
func (g Grid2D) ColComm(r *Rank) (*Comm, error) {
	_, col := g.Coords(r.ID())
	members := make([]int, g.Rows)
	for row := 0; row < g.Rows; row++ {
		members[row] = g.RankAt(row, col)
	}
	return r.newCommTrusted(members)
}

// Grid3D maps ranks onto a q×q×c processor cuboid: the 2.5D layout with q =
// sqrt(p/c) and replication factor c (c = 1 is 2D, c = p^(1/3) is 3D).
// rank = layer·q² + row·q + col.
type Grid3D struct {
	Q      int // rows = cols of each square layer
	Layers int // replication factor c

	// tab shares one member slice per row/column/fiber across every rank
	// that asks for the communicator (NewGrid3D builds it; a zero-valued
	// Grid3D literal falls back to per-call construction). The q ranks of
	// a row each used to build — and duplicate-scan — an identical q-entry
	// slice, so comm construction was O(p·q) slices and O(p·q²)
	// comparisons per run. The shared slices are read-only by contract:
	// Comm never mutates its member list.
	tab *grid3Tab
}

type grid3Tab struct {
	rows   [][]int // rows[layer*q+row]
	cols   [][]int // cols[layer*q+col]
	fibers [][]int // fibers[row*q+col]
}

// NewGrid3D validates that p ranks tile a q×q×layers cuboid.
func NewGrid3D(q, layers, p int) (Grid3D, error) {
	if q <= 0 || layers <= 0 || q*q*layers != p {
		return Grid3D{}, fmt.Errorf("sim: %d ranks do not tile a %dx%dx%d cuboid", p, q, q, layers)
	}
	g := Grid3D{Q: q, Layers: layers}
	tab := &grid3Tab{
		rows:   make([][]int, q*layers),
		cols:   make([][]int, q*layers),
		fibers: make([][]int, q*q),
	}
	for l := 0; l < layers; l++ {
		for row := 0; row < q; row++ {
			m := make([]int, q)
			for c := 0; c < q; c++ {
				m[c] = g.RankAt(row, c, l)
			}
			tab.rows[l*q+row] = m
		}
		for col := 0; col < q; col++ {
			m := make([]int, q)
			for row := 0; row < q; row++ {
				m[row] = g.RankAt(row, col, l)
			}
			tab.cols[l*q+col] = m
		}
	}
	for row := 0; row < q; row++ {
		for col := 0; col < q; col++ {
			m := make([]int, layers)
			for l := 0; l < layers; l++ {
				m[l] = g.RankAt(row, col, l)
			}
			tab.fibers[row*q+col] = m
		}
	}
	g.tab = tab
	return g, nil
}

// Coords returns the (row, col, layer) of a global rank.
func (g Grid3D) Coords(rank int) (row, col, layer int) {
	layer = rank / (g.Q * g.Q)
	rem := rank % (g.Q * g.Q)
	return rem / g.Q, rem % g.Q, layer
}

// RankAt returns the global rank at (row, col, layer).
func (g Grid3D) RankAt(row, col, layer int) int {
	return layer*g.Q*g.Q + row*g.Q + col
}

// LayerGrid returns the 2D grid describing one layer (for Cannon-style
// shifts within a layer).
func (g Grid3D) LayerGrid() Grid2D { return Grid2D{Rows: g.Q, Cols: g.Q} }

// RowComm returns the caller's intra-layer row communicator.
func (g Grid3D) RowComm(r *Rank) (*Comm, error) {
	row, col, layer := g.Coords(r.ID())
	if g.tab != nil && g.Q*g.Q*g.Layers == r.P() {
		return &Comm{rank: r, members: g.tab.rows[layer*g.Q+row], me: col}, nil
	}
	members := make([]int, g.Q)
	for c := 0; c < g.Q; c++ {
		members[c] = g.RankAt(row, c, layer)
	}
	return r.newCommTrusted(members)
}

// ColComm returns the caller's intra-layer column communicator.
func (g Grid3D) ColComm(r *Rank) (*Comm, error) {
	row, col, layer := g.Coords(r.ID())
	if g.tab != nil && g.Q*g.Q*g.Layers == r.P() {
		return &Comm{rank: r, members: g.tab.cols[layer*g.Q+col], me: row}, nil
	}
	members := make([]int, g.Q)
	for row := 0; row < g.Q; row++ {
		members[row] = g.RankAt(row, col, layer)
	}
	return r.newCommTrusted(members)
}

// FiberComm returns the caller's inter-layer fiber communicator: the c
// ranks sharing (row, col) across layers, ordered by layer. This is the
// communicator over which 2.5D algorithms replicate inputs and reduce
// partial results.
func (g Grid3D) FiberComm(r *Rank) (*Comm, error) {
	row, col, layer := g.Coords(r.ID())
	if g.tab != nil && g.Q*g.Q*g.Layers == r.P() {
		return &Comm{rank: r, members: g.tab.fibers[row*g.Q+col], me: layer}, nil
	}
	members := make([]int, g.Layers)
	for l := 0; l < g.Layers; l++ {
		members[l] = g.RankAt(row, col, l)
	}
	return r.newCommTrusted(members)
}
