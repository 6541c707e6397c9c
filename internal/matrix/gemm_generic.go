//go:build !amd64 || purego

package matrix

// mulAdd runs c += a·b on the portable kernel alone.
func mulAdd(c, a, b []float64, m, kk, n int) {
	mulAddGo(c, a, b, 0, m, 0, n, kk, n)
}
