package lu

import (
	"fmt"
	"testing"

	"perfscale/internal/matrix"
)

func TestSolveRecoversKnownSolution(t *testing.T) {
	for _, n := range []int{1, 4, 16, 33} {
		a := matrix.RandomDiagDominant(n, int64(n)+21)
		xWant := matrix.Random(n, 3, int64(n)+22)
		b := matrix.Mul(a, xWant)
		l, u, err := serialBlocked(a, 8)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x, err := solve(l, u, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := x.MaxAbsDiff(xWant); d > 1e-8*float64(n) {
			t.Errorf("n=%d: solution error %g", n, d)
		}
	}
}

func TestSolveResidual(t *testing.T) {
	n := 24
	a := matrix.RandomDiagDominant(n, 31)
	b := matrix.Random(n, 1, 32)
	l, u, err := serialBlocked(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	x, err := solve(l, u, b)
	if err != nil {
		t.Fatal(err)
	}
	r := matrix.Mul(a, x)
	r.Sub(b)
	if d := r.MaxAbs(); d > 1e-9*float64(n) {
		t.Errorf("residual %g", d)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	l, u, err := serialBlocked(matrix.RandomDiagDominant(4, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solve(l, u, matrix.New(5, 1)); err == nil {
		t.Error("rhs row mismatch should error")
	}
	if _, err := solve(matrix.New(4, 3), u, matrix.New(4, 1)); err == nil {
		t.Error("non-square L should error")
	}
}

func TestSolveSingularU(t *testing.T) {
	l := matrix.Identity(3)
	u := matrix.New(3, 3) // zero diagonal
	if _, err := solve(l, u, matrix.New(3, 1)); err == nil {
		t.Error("singular U should error")
	}
}

func TestDistributedResultSolve(t *testing.T) {
	// End to end: distributed factorization, then solve.
	n := 16
	a := matrix.RandomDiagDominant(n, 41)
	res, err := Stacked(zeroCost, 4, 2, a)
	if err != nil {
		t.Fatal(err)
	}
	xWant := matrix.Random(n, 2, 42)
	b := matrix.Mul(a, xWant)
	x, err := solve(res.L, res.U, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxAbsDiff(xWant); d > 1e-8*float64(n) {
		t.Errorf("distributed-factor solve error %g", d)
	}
}

// solve returns x with A·x = b, given the unit-lower L and upper U factors
// of A: forward substitution L·y = b, then back substitution U·x = y.
// b may have multiple right-hand-side columns.
func solve(l, u, b *matrix.Dense) (*matrix.Dense, error) {
	n := l.Rows
	if l.Cols != n || u.Rows != n || u.Cols != n {
		return nil, fmt.Errorf("lu: factor shapes %dx%d / %dx%d", l.Rows, l.Cols, u.Rows, u.Cols)
	}
	if b.Rows != n {
		return nil, fmt.Errorf("lu: rhs has %d rows, want %d", b.Rows, n)
	}
	x := b.Clone()
	// Forward: L·y = b (unit diagonal).
	matrix.TriSolveLowerUnit(l, x)
	// Back: U·x = y.
	for j := 0; j < x.Cols; j++ {
		for i := n - 1; i >= 0; i-- {
			s := x.At(i, j)
			for k := i + 1; k < n; k++ {
				s -= u.At(i, k) * x.At(k, j)
			}
			uii := u.At(i, i)
			if uii == 0 {
				return nil, fmt.Errorf("lu: singular U at %d", i)
			}
			x.Set(i, j, s/uii)
		}
	}
	return x, nil
}
