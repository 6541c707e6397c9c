//go:build !race

package matmul

const raceEnabled = false
