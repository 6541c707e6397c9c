// Package matrix provides the dense row-major linear-algebra kernels the
// distributed algorithms run locally on each rank: register-tiled GEMM
// (SSE2 on amd64, a portable Go tile elsewhere; same bits on both),
// addition, block copy in and out, transposition, norms and comparison
// helpers, plus unblocked LU for panel factorization.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a rows×cols matrix stored row-major in a single slice.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps data (not copied) as a rows×cols matrix.
func FromData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns element (i, j).
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Clone returns a deep copy.
func (a *Dense) Clone() *Dense {
	b := New(a.Rows, a.Cols)
	copy(b.Data, a.Data)
	return b
}

// Equalish reports whether a and b have the same shape and every element
// agrees within tol.
func (a *Dense) Equalish(b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise |a-b|; shapes must match.
func (a *Dense) MaxAbsDiff(b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m := 0.0
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// MaxAbs returns the largest |a_ij|.
func (a *Dense) MaxAbs() float64 {
	m := 0.0
	for _, v := range a.Data {
		if d := math.Abs(v); d > m {
			m = d
		}
	}
	return m
}

// FrobeniusNorm returns sqrt(sum a_ij²).
func (a *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Random returns a rows×cols matrix with i.i.d. uniform entries in [-1, 1)
// drawn from a deterministic generator seeded with seed.
func Random(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := New(rows, cols)
	for i := range a.Data {
		a.Data[i] = 2*rng.Float64() - 1
	}
	return a
}

// RandomDiagDominant returns a random n×n matrix made strictly diagonally
// dominant, so LU without pivoting is numerically stable.
func RandomDiagDominant(n int, seed int64) *Dense {
	a := Random(n, n, seed)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			rowSum += math.Abs(a.At(i, j))
		}
		a.Set(i, i, rowSum+1)
	}
	return a
}

// Identity returns the n×n identity.
func Identity(n int) *Dense {
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

// Add accumulates b into a elementwise; shapes must match.
func (a *Dense) Add(b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: add shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// Sub subtracts b from a elementwise; shapes must match.
func (a *Dense) Sub(b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: sub shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] -= v
	}
}

// Scale multiplies every element by s.
func (a *Dense) Scale(s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// Transpose returns aᵀ.
func (a *Dense) Transpose() *Dense {
	b := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			b.Set(j, i, a.At(i, j))
		}
	}
	return b
}

// Block returns a copy of the sub-matrix rows [r0,r0+rows) × cols
// [c0,c0+cols).
func (a *Dense) Block(r0, c0, rows, cols int) *Dense {
	if r0 < 0 || c0 < 0 || r0+rows > a.Rows || c0+cols > a.Cols {
		panic(fmt.Sprintf("matrix: block [%d:%d,%d:%d] outside %dx%d", r0, r0+rows, c0, c0+cols, a.Rows, a.Cols))
	}
	b := New(rows, cols)
	for i := 0; i < rows; i++ {
		copy(b.Data[i*cols:(i+1)*cols], a.Data[(r0+i)*a.Cols+c0:(r0+i)*a.Cols+c0+cols])
	}
	return b
}

// SetBlock copies b into a at offset (r0, c0).
func (a *Dense) SetBlock(r0, c0 int, b *Dense) {
	if r0 < 0 || c0 < 0 || r0+b.Rows > a.Rows || c0+b.Cols > a.Cols {
		panic(fmt.Sprintf("matrix: setblock [%d:%d,%d:%d] outside %dx%d", r0, r0+b.Rows, c0, c0+b.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < b.Rows; i++ {
		copy(a.Data[(r0+i)*a.Cols+c0:(r0+i)*a.Cols+c0+b.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
}

// MulAdd accumulates a·b into c (c += a·b) with a register-tiled kernel:
// an SSE2 4×4 tile on amd64, a portable 2×4 Go tile elsewhere and under
// the purego build tag. Every kernel performs, per element of c, the
// operation sequence stated in gemm.go (k ascending, zeros of a skipped,
// product rounded and then added), so the result is bit for bit the same
// on every build. Shapes must conform: a is m×k, b is k×n, c is m×n, each
// operand's Data must hold at least Rows·Cols elements, and c must not
// alias a or b.
func MulAdd(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: mul shape mismatch: c %dx%d = a %dx%d * b %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkLen("c", c)
	checkLen("a", a)
	checkLen("b", b)
	m, kk, n := a.Rows, a.Cols, b.Cols
	if m <= 0 || kk <= 0 || n <= 0 {
		return
	}
	mulAdd(c.Data, a.Data, b.Data, m, kk, n)
}

// checkLen panics when d.Data is shorter than d's shape. MulAdd calls it
// on every operand before any element is read or written: a short slice
// would otherwise stop the portable kernel part-way through with c half
// updated, and would be an out-of-bounds read in the assembly.
func checkLen(operand string, d *Dense) {
	if len(d.Data) < d.Rows*d.Cols {
		panic(fmt.Sprintf("matrix: mul operand %s: len(Data) = %d, shape %dx%d needs %d",
			operand, len(d.Data), d.Rows, d.Cols, d.Rows*d.Cols))
	}
}

// Mul returns a·b.
func Mul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	MulAdd(c, a, b)
	return c
}

// MulFlops returns the flop count of MulAdd on the given shapes: 2·m·k·n.
func MulFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// LUInPlace factors a (square) in place without pivoting: afterwards the
// strict lower triangle holds L (unit diagonal implied) and the upper
// triangle holds U. The caller must supply a matrix for which pivot-free
// elimination is stable (e.g. diagonally dominant). Returns an error if a
// zero pivot appears.
func LUInPlace(a *Dense) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("matrix: LU of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	for k := 0; k < n; k++ {
		piv := a.At(k, k)
		if piv == 0 {
			return fmt.Errorf("matrix: zero pivot at step %d", k)
		}
		for i := k + 1; i < n; i++ {
			lik := a.At(i, k) / piv
			a.Set(i, k, lik)
			for j := k + 1; j < n; j++ {
				a.Set(i, j, a.At(i, j)-lik*a.At(k, j))
			}
		}
	}
	return nil
}

// LUFlops returns the approximate flop count of LU on an n×n matrix:
// (2/3)n³.
func LUFlops(n int) float64 { return 2.0 / 3.0 * float64(n) * float64(n) * float64(n) }

// SplitLU separates an in-place LU result into unit-lower L and upper U.
func SplitLU(a *Dense) (l, u *Dense) {
	n := a.Rows
	l, u = New(n, n), New(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < n; j++ {
			switch {
			case j < i:
				l.Set(i, j, a.At(i, j))
			default:
				u.Set(i, j, a.At(i, j))
			}
		}
	}
	return l, u
}

// TriSolveLowerUnit solves L·X = B in place over B, with L unit lower
// triangular (diagonal implied 1, strict lower part taken from l).
func TriSolveLowerUnit(l, b *Dense) {
	if l.Rows != l.Cols || l.Rows != b.Rows {
		panic("matrix: trsm shape mismatch")
	}
	n, m := l.Rows, b.Cols
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			lik := l.At(i, k)
			if lik == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				b.Set(i, j, b.At(i, j)-lik*b.At(k, j))
			}
		}
	}
}

// TriSolveUpperRight solves X·U = B in place over B, with U upper
// triangular (including diagonal). Used for computing L panels in blocked
// LU: L21 = A21·U11⁻¹.
func TriSolveUpperRight(u, b *Dense) {
	if u.Rows != u.Cols || u.Rows != b.Cols {
		panic("matrix: trsm shape mismatch")
	}
	n, m := u.Rows, b.Rows
	for j := 0; j < n; j++ {
		ujj := u.At(j, j)
		if ujj == 0 {
			panic("matrix: singular U in triangular solve")
		}
		for i := 0; i < m; i++ {
			s := b.At(i, j)
			for k := 0; k < j; k++ {
				s -= b.At(i, k) * u.At(k, j)
			}
			b.Set(i, j, s/ujj)
		}
	}
}

// TriSolveFlops returns the flop count of an n×n triangular solve against
// m right-hand sides: n²·m.
func TriSolveFlops(n, m int) float64 { return float64(n) * float64(n) * float64(m) }

// CholeskyInPlace factors a symmetric positive-definite matrix in place:
// afterwards the lower triangle holds L with A = L·Lᵀ (the upper triangle
// is left untouched). Returns an error on a non-positive pivot.
func CholeskyInPlace(a *Dense) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("matrix: Cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		for j := 0; j < k; j++ {
			d -= a.At(k, j) * a.At(k, j)
		}
		if d <= 0 {
			return fmt.Errorf("matrix: non-positive pivot %g at step %d", d, k)
		}
		d = math.Sqrt(d)
		a.Set(k, k, d)
		for i := k + 1; i < n; i++ {
			s := a.At(i, k)
			for j := 0; j < k; j++ {
				s -= a.At(i, j) * a.At(k, j)
			}
			a.Set(i, k, s/d)
		}
	}
	return nil
}

// CholeskyFlops returns the approximate flop count: n³/3.
func CholeskyFlops(n int) float64 { return float64(n) * float64(n) * float64(n) / 3 }

// LowerTriangle returns a copy with everything above the diagonal zeroed.
func (a *Dense) LowerTriangle() *Dense {
	l := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j <= i && j < a.Cols; j++ {
			l.Set(i, j, a.At(i, j))
		}
	}
	return l
}

// RandomSPD returns a random symmetric positive-definite n×n matrix:
// B·Bᵀ + n·I for a random B.
func RandomSPD(n int, seed int64) *Dense {
	b := Random(n, n, seed)
	a := Mul(b, b.Transpose())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}
