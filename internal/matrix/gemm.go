package matrix

// The operation-order contract of MulAdd (DESIGN §13). For every element
// c[i][j] the kernels below perform exactly this sequence, and nothing else:
//
//	for k := 0; k < K; k++ {
//		if a[i][k] == 0 { continue }      // +0 and −0 skip, NaN does not
//		c[i][j] = round(c[i][j] + round(a[i][k] * b[k][j]))
//	}
//
// k ascends, the product is rounded to float64 before it is added (no FMA),
// and nothing is re-associated. Elements of C are independent, so a kernel
// may tile across i and vectorise across j freely; it may not touch the k
// order. That is what keeps every numeric output of the repo, the
// benchmark goldens and the campaign reproducer digests bit for bit the
// same on every kernel and every GOARCH. The sequence is written out as a
// plain i-k-j loop in matrix_test.go (mulAddOracle); TestMulAddBitIdentical
// and FuzzMulAdd hold the kernels to it.

// mulAddGo is the portable kernel: c[i0:i1, j0:j1] += a[i0:i1, :]·b[:, j0:j1]
// for row-major c (row stride n), a (row stride kk) and b (row stride n).
// It is the whole of MulAdd under `!amd64 || purego` and the edge-row and
// edge-column handler beside the SSE2 tile on amd64.
//
// The body is a 2×4 register tile: eight accumulators held in locals over
// the full k loop, so a loaded b[k][j:j+4] serves two rows of C and C is
// read and written once. The product is written float64(x*b): the explicit
// conversion rounds it, so a GOARCH whose compiler fuses x*y+z (arm64,
// ppc64le, s390x, riscv64) may not turn the update into an FMA and yields
// the same bits as amd64. What the tile does not cover (an odd last row,
// up to three last columns) goes through a scalar k loop per element.
func mulAddGo(c, a, b []float64, i0, i1, j0, j1, kk, n int) {
	iT := i0 + (i1-i0)&^1
	jT := j0 + (j1-j0)&^3
	for j := j0; j < jT; j += 4 {
		for i := i0; i < iT; i += 2 {
			a0 := a[i*kk : i*kk+kk]
			a1 := a[(i+1)*kk : (i+1)*kk+kk][:len(a0)] // same length: a1[k] needs no bounds check
			c0 := c[i*n+j : i*n+j+4 : i*n+j+4]
			c1 := c[(i+1)*n+j : (i+1)*n+j+4 : (i+1)*n+j+4]
			c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
			c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
			for k, x0 := range a0 {
				bk := b[k*n+j : k*n+j+4 : k*n+j+4]
				b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
				if x0 != 0 {
					c00 += float64(x0 * b0)
					c01 += float64(x0 * b1)
					c02 += float64(x0 * b2)
					c03 += float64(x0 * b3)
				}
				if x1 := a1[k]; x1 != 0 {
					c10 += float64(x1 * b0)
					c11 += float64(x1 * b1)
					c12 += float64(x1 * b2)
					c13 += float64(x1 * b3)
				}
			}
			c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
			c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
		}
	}
	for i := i0; i < i1; i++ {
		j := jT
		if i >= iT {
			j = j0
		}
		for ; j < j1; j++ {
			s := c[i*n+j]
			for k, x := range a[i*kk : i*kk+kk] {
				if x != 0 {
					s += float64(x * b[k*n+j])
				}
			}
			c[i*n+j] = s
		}
	}
}
