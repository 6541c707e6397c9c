//go:build race

package matmul

// raceEnabled reports whether the race detector is compiled in; the
// oracle's p = 4,096 point skips under it.
const raceEnabled = true
