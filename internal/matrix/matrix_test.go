package matrix

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	a := New(2, 3)
	if a.Rows != 2 || a.Cols != 3 || len(a.Data) != 6 {
		t.Fatalf("New(2,3): %+v", a)
	}
	a.Set(1, 2, 5)
	if a.At(1, 2) != 5 || a.Data[5] != 5 {
		t.Error("Set/At row-major layout broken")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1, 2) should panic")
		}
	}()
	New(-1, 2)
}

func TestFromData(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	a := FromData(2, 3, d)
	if a.At(0, 2) != 3 || a.At(1, 0) != 4 {
		t.Error("FromData layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromData with wrong length should panic")
		}
	}()
	FromData(2, 2, d)
}

func TestCloneIndependence(t *testing.T) {
	a := Random(3, 3, 1)
	b := a.Clone()
	b.Set(0, 0, 999)
	if a.At(0, 0) == 999 {
		t.Error("Clone must copy data")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, 7)
	b := Random(4, 4, 7)
	if !a.Equalish(b, 0) {
		t.Error("same seed must produce the same matrix")
	}
	c := Random(4, 4, 8)
	if a.Equalish(c, 0) {
		t.Error("different seeds should differ")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Errorf("entry %g outside [-1,1)", v)
		}
	}
}

func TestMulSmallKnown(t *testing.T) {
	a := FromData(2, 2, []float64{1, 2, 3, 4})
	b := FromData(2, 2, []float64{5, 6, 7, 8})
	c := Mul(a, b)
	want := FromData(2, 2, []float64{19, 22, 43, 50})
	if !c.Equalish(want, 1e-14) {
		t.Errorf("Mul: got %v want %v", c.Data, want.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	a := Random(5, 5, 3)
	c := Mul(a, Identity(5))
	if !c.Equalish(a, 1e-14) {
		t.Error("A·I != A")
	}
	c = Mul(Identity(5), a)
	if !c.Equalish(a, 1e-14) {
		t.Error("I·A != A")
	}
}

func TestMulRectangular(t *testing.T) {
	a := Random(3, 7, 1)
	b := Random(7, 4, 2)
	c := Mul(a, b)
	if c.Rows != 3 || c.Cols != 4 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
	// Check one element by hand.
	want := 0.0
	for k := 0; k < 7; k++ {
		want += a.At(2, k) * b.At(k, 3)
	}
	if math.Abs(c.At(2, 3)-want) > 1e-12 {
		t.Errorf("element (2,3): got %g want %g", c.At(2, 3), want)
	}
}

func TestMulBlockedMatchesNaive(t *testing.T) {
	// Exercise sizes around the 64-block boundary.
	for _, n := range []int{1, 63, 64, 65, 130} {
		a := Random(n, n, int64(n))
		b := Random(n, n, int64(n+1))
		c := Mul(a, b)
		naive := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				naive.Set(i, j, s)
			}
		}
		if d := c.MaxAbsDiff(naive); d > 1e-10*float64(n) {
			t.Errorf("n=%d: blocked vs naive max diff %g", n, d)
		}
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := Random(4, 4, 1)
	b := Random(4, 4, 2)
	c := Random(4, 4, 3)
	orig := c.Clone()
	MulAdd(c, a, b)
	prod := Mul(a, b)
	for i := range c.Data {
		if math.Abs(c.Data[i]-orig.Data[i]-prod.Data[i]) > 1e-12 {
			t.Fatalf("MulAdd must accumulate, elem %d", i)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Mul should panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulFlops(t *testing.T) {
	if got := MulFlops(2, 3, 4); got != 48 {
		t.Errorf("MulFlops(2,3,4) = %g, want 48", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromData(2, 2, []float64{1, 2, 3, 4})
	b := FromData(2, 2, []float64{10, 20, 30, 40})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Errorf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.At(0, 0) != 1 {
		t.Errorf("Sub: %v", a.Data)
	}
	a.Scale(3)
	if a.At(0, 1) != 6 {
		t.Errorf("Scale: %v", a.Data)
	}
}

func TestAddShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Add should panic")
		}
	}()
	New(2, 2).Add(New(3, 3))
}

func TestTranspose(t *testing.T) {
	a := FromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := a.Transpose()
	if b.Rows != 3 || b.Cols != 2 || b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Errorf("Transpose: %+v", b)
	}
	c := b.Transpose()
	if !c.Equalish(a, 0) {
		t.Error("double transpose must be identity")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	a := Random(6, 8, 5)
	blk := a.Block(2, 3, 3, 4)
	if blk.Rows != 3 || blk.Cols != 4 {
		t.Fatalf("block shape %dx%d", blk.Rows, blk.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if blk.At(i, j) != a.At(2+i, 3+j) {
				t.Fatalf("block element (%d,%d) wrong", i, j)
			}
		}
	}
	b := New(6, 8)
	b.SetBlock(2, 3, blk)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if b.At(2+i, 3+j) != blk.At(i, j) {
				t.Fatalf("SetBlock element (%d,%d) wrong", i, j)
			}
		}
	}
	if b.At(0, 0) != 0 {
		t.Error("SetBlock wrote outside the block")
	}
}

func TestBlockOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Block should panic")
		}
	}()
	New(3, 3).Block(2, 2, 2, 2)
}

func TestNorms(t *testing.T) {
	a := FromData(1, 3, []float64{3, -4, 0})
	if a.FrobeniusNorm() != 5 {
		t.Errorf("Frobenius: got %g", a.FrobeniusNorm())
	}
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs: got %g", a.MaxAbs())
	}
	b := FromData(1, 3, []float64{3, -4, 2})
	if a.MaxAbsDiff(b) != 2 {
		t.Errorf("MaxAbsDiff: got %g", a.MaxAbsDiff(b))
	}
}

func TestLUReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := RandomDiagDominant(n, int64(n))
		orig := a.Clone()
		if err := LUInPlace(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l, u := SplitLU(a)
		recon := Mul(l, u)
		if d := recon.MaxAbsDiff(orig); d > 1e-9*float64(n) {
			t.Errorf("n=%d: ||LU - A|| = %g", n, d)
		}
	}
}

func TestLUZeroPivot(t *testing.T) {
	a := New(2, 2) // all zeros
	if err := LUInPlace(a); err == nil {
		t.Error("zero pivot should be reported")
	}
}

func TestLUFlops(t *testing.T) {
	if got := LUFlops(3); math.Abs(got-18) > 1e-12 {
		t.Errorf("LUFlops(3) = %g, want 18", got)
	}
}

func TestTriSolveLowerUnit(t *testing.T) {
	n := 8
	a := RandomDiagDominant(n, 3)
	if err := LUInPlace(a); err != nil {
		t.Fatal(err)
	}
	l, _ := SplitLU(a)
	x := Random(n, 4, 9)
	b := Mul(l, x)
	TriSolveLowerUnit(l, b) // solves L·X = B in place
	if d := b.MaxAbsDiff(x); d > 1e-9 {
		t.Errorf("lower solve residual %g", d)
	}
}

func TestTriSolveUpperRight(t *testing.T) {
	n := 8
	a := RandomDiagDominant(n, 4)
	if err := LUInPlace(a); err != nil {
		t.Fatal(err)
	}
	_, u := SplitLU(a)
	x := Random(5, n, 11)
	b := Mul(x, u)
	TriSolveUpperRight(u, b) // solves X·U = B in place
	if d := b.MaxAbsDiff(x); d > 1e-9 {
		t.Errorf("upper-right solve residual %g", d)
	}
}

func TestTriSolveFlops(t *testing.T) {
	if got := TriSolveFlops(3, 2); got != 18 {
		t.Errorf("TriSolveFlops(3,2) = %g, want 18", got)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ on random shapes.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		m := int(seed%4) + 1
		k := int(seed%5) + 1
		n := int(seed%3) + 1
		a := Random(m, k, seed)
		b := Random(k, n, seed+1)
		lhs := Mul(a, b).Transpose()
		rhs := Mul(b.Transpose(), a.Transpose())
		return lhs.MaxAbsDiff(rhs) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributesProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%6) + 1
		a := Random(n, n, seed)
		b := Random(n, n, seed+1)
		c := Random(n, n, seed+2)
		bc := b.Clone()
		bc.Add(c)
		lhs := Mul(a, bc)
		rhs := Mul(a, b)
		rhs.Add(Mul(a, c))
		return lhs.MaxAbsDiff(rhs) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiagDominantIsStableForLU(t *testing.T) {
	a := RandomDiagDominant(20, 99)
	for i := 0; i < 20; i++ {
		off := 0.0
		for j := 0; j < 20; j++ {
			if j != i {
				off += math.Abs(a.At(i, j))
			}
		}
		if math.Abs(a.At(i, i)) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestCholeskyInPlaceReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 8, 17} {
		a := RandomSPD(n, int64(n))
		w := a.Clone()
		if err := CholeskyInPlace(w); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := w.LowerTriangle()
		recon := Mul(l, l.Transpose())
		if d := recon.MaxAbsDiff(a); d > 1e-9*float64(n)*float64(n) {
			t.Errorf("n=%d: ||LLᵀ − A|| = %g", n, d)
		}
	}
}

func TestCholeskyInPlaceRejectsIndefinite(t *testing.T) {
	a := Identity(3)
	a.Set(1, 1, -4)
	if err := CholeskyInPlace(a); err == nil {
		t.Error("indefinite matrix should be rejected")
	}
}

func TestCholeskyInPlacePanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-square should panic")
		}
	}()
	CholeskyInPlace(New(2, 3))
}

func TestCholeskyFlops(t *testing.T) {
	if got := CholeskyFlops(3); math.Abs(got-9) > 1e-12 {
		t.Errorf("CholeskyFlops(3) = %g, want 9", got)
	}
}

func TestLowerTriangle(t *testing.T) {
	a := FromData(2, 2, []float64{1, 2, 3, 4})
	l := a.LowerTriangle()
	if l.At(0, 0) != 1 || l.At(0, 1) != 0 || l.At(1, 0) != 3 || l.At(1, 1) != 4 {
		t.Errorf("LowerTriangle: %v", l.Data)
	}
}

func TestRandomSPDIsSPD(t *testing.T) {
	a := RandomSPD(12, 9)
	// Symmetric.
	if d := a.MaxAbsDiff(a.Transpose()); d > 1e-12 {
		t.Errorf("not symmetric: %g", d)
	}
	// Positive definite: Cholesky succeeds.
	if err := CholeskyInPlace(a.Clone()); err != nil {
		t.Errorf("not positive definite: %v", err)
	}
}

// mulAddOracle is the loop MulAdd ran before the register-tiled kernels,
// kept verbatim as the reference for the operation-order contract in
// gemm.go: per element of c, k ascending, a[i][k] == 0 skipped, product
// rounded and then added. The explicit float64 conversion is the one
// addition: it keeps the oracle unfused on a GOARCH that forms FMAs.
func mulAddOracle(c, a, b *Dense) {
	const bs = 64
	m, kk, n := a.Rows, a.Cols, b.Cols
	for i0 := 0; i0 < m; i0 += bs {
		iMax := min(i0+bs, m)
		for k0 := 0; k0 < kk; k0 += bs {
			kMax := min(k0+bs, kk)
			for j0 := 0; j0 < n; j0 += bs {
				jMax := min(j0+bs, n)
				for i := i0; i < iMax; i++ {
					crow := c.Data[i*n : (i+1)*n]
					arow := a.Data[i*kk : (i+1)*kk]
					for k := k0; k < kMax; k++ {
						aik := arow[k]
						if aik == 0 {
							continue
						}
						brow := b.Data[k*n : (k+1)*n]
						for j := j0; j < jMax; j++ {
							crow[j] += float64(aik * brow[j])
						}
					}
				}
			}
		}
	}
}

// What mulAddOperands plants in its operands, as a bit mask.
const (
	scatterZeros = 1 << iota // every fifth element of a is +0 or −0
	skippedRows              // every third column of a is ±0 and that row of b is NaN/±Inf
	liveSpecials             // NaN/±Inf in b where a is non-zero, and in a (NaN is not zero: no skip)
	nonZeroC                 // c is random on entry instead of zero
	allSpecials  = 1<<iota - 1
)

func mulAddOperands(m, k, n int, seed int64, mask int) (c, a, b *Dense) {
	a, b, c = Random(m, k, seed), Random(k, n, seed+1), New(m, n)
	if mask&nonZeroC != 0 {
		c = Random(m, n, seed+2)
	}
	zero := func(i int) float64 { return math.Copysign(0, float64(i%2*2-1)) }
	specials := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	special := func(i int) float64 { return specials[i%3] }
	if mask&scatterZeros != 0 {
		for i := 0; i < len(a.Data); i += 5 {
			a.Data[i] = zero(i / 5)
		}
	}
	if mask&liveSpecials != 0 {
		for i := 3; i < len(b.Data); i += 11 {
			b.Data[i] = special(i / 11)
		}
		for i := 2; i < len(a.Data); i += 13 {
			a.Data[i] = special(i / 13)
		}
	}
	if mask&skippedRows != 0 {
		for kk := 1; kk < k; kk += 3 {
			for i := 0; i < m; i++ {
				a.Set(i, kk, zero(i+kk))
			}
			for j := 0; j < n; j++ {
				b.Set(kk, j, special(j+kk))
			}
		}
	}
	return c, a, b
}

// checkMulAddBits runs MulAdd and the oracle on copies of the same operands
// and compares every element of c by its bits. Any NaN equals any NaN:
// payloads are not part of the contract.
func checkMulAddBits(t *testing.T, m, k, n int, seed int64, mask int) {
	t.Helper()
	got, a, b := mulAddOperands(m, k, n, seed, mask)
	want := got.Clone()
	MulAdd(got, a, b)
	mulAddOracle(want, a, b)
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%dx%dx%d seed %d mask %#x: c[%d][%d] = %g (%#x), oracle %g (%#x)",
				m, k, n, seed, mask, i/n, i%n, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if mask&liveSpecials == 0 && (math.IsNaN(g) || math.IsInf(g, 0)) {
			t.Fatalf("%dx%dx%d seed %d mask %#x: c[%d][%d] = %g: a skipped row of b leaked into c",
				m, k, n, seed, mask, i/n, i%n, g)
		}
	}
}

func TestMulAddBitIdentical(t *testing.T) {
	shapes := [][3]int{
		// What the registry and the benchmark run.
		{4, 4, 4}, {16, 16, 16}, {32, 32, 32}, {48, 16, 32}, {96, 96, 96},
		// Edges: k = 0, one element, m or n below or off the 4-wide tile, an
		// odd last row, k past the oracle's 64-block.
		{1, 1, 1}, {3, 0, 5}, {4, 1, 4}, {7, 5, 13}, {5, 7, 6}, {2, 9, 3}, {3, 5, 2},
		{4, 4, 3}, {3, 4, 4}, {9, 65, 1}, {1, 8, 9}, {6, 70, 9}, {130, 67, 75},
	}
	masks := []int{0, scatterZeros, skippedRows, liveSpecials, nonZeroC, allSpecials}
	for si, s := range shapes {
		for _, mask := range masks {
			checkMulAddBits(t, s[0], s[1], s[2], int64(100+si), mask)
		}
	}
}

func FuzzMulAdd(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), int64(1), uint8(0))
	f.Add(uint8(7), uint8(5), uint8(13), int64(2), uint8(allSpecials))
	f.Add(uint8(40), uint8(40), uint8(40), int64(3), uint8(scatterZeros|nonZeroC))
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64, mask uint8) {
		checkMulAddBits(t, int(m%41), int(k%41), int(n%41), seed, int(mask)&allSpecials)
	})
}

func TestMulAddOperandPanics(t *testing.T) {
	short := func(rows, cols int) *Dense { return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols-1)} }
	cases := []struct {
		name    string
		c, a, b *Dense
		want    string
	}{
		{"shape", New(2, 3), New(2, 3), New(2, 3), "mul shape mismatch: c 2x3 = a 2x3 * b 2x3"},
		{"short c", short(4, 5), New(4, 3), New(3, 5), "operand c: len(Data) = 19, shape 4x5 needs 20"},
		{"short a", New(4, 5), short(4, 3), New(3, 5), "operand a: len(Data) = 11, shape 4x3 needs 12"},
		{"short b", New(4, 5), New(4, 3), short(3, 5), "operand b: len(Data) = 14, shape 3x5 needs 15"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.a.Data {
				tc.a.Data[i] = 1
			}
			for i := range tc.b.Data {
				tc.b.Data[i] = 1
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want it to contain %q", msg, tc.want)
				}
				if tc.c.MaxAbs() != 0 {
					t.Error("c was written before the panic")
				}
			}()
			MulAdd(tc.c, tc.a, tc.b)
		})
	}
}
