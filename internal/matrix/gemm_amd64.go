//go:build amd64 && !purego

package matrix

// gemmTile4x4 is the SSE2 micro-kernel in gemm_amd64.s:
// c[0:4, 0:4] += a[0:4, 0:k]·b[0:k, 0:4] in the operation order of gemm.go,
// with row strides ldc, lda, ldb counted in elements. It reads and writes
// exactly those three tiles; the caller guarantees they lie inside the
// operands and that k ≥ 1.
//
//go:noescape
func gemmTile4x4(c, a, b *float64, k, ldc, lda, ldb int)

// mulAdd runs c += a·b for m, kk, n ≥ 1 and operands MulAdd has already
// checked to hold m·n, m·kk and kk·n elements. The j-panel is the outer
// loop so the kk×4 panel of b stays in L1 across the i-tiles; rows and
// columns past the last full 4×4 tile go to the portable kernel. The edge
// calls are skipped, not just empty, when there is no edge: at 4×4×4 (the
// sim_scale block) two no-op calls were a quarter of MulAdd's time.
func mulAdd(c, a, b []float64, m, kk, n int) {
	m4, n4 := m&^3, n&^3
	for j := 0; j < n4; j += 4 {
		for i := 0; i < m4; i += 4 {
			gemmTile4x4(&c[i*n+j], &a[i*kk], &b[j], kk, n, kk, n)
		}
	}
	if m4 < m {
		mulAddGo(c, a, b, m4, m, 0, n4, kk, n)
	}
	if n4 < n {
		mulAddGo(c, a, b, 0, m, n4, n, kk, n)
	}
}
