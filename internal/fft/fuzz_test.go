package fft

import (
	"math"
	"math/cmplx"
	"testing"
)

// FuzzSerialInverseRoundTrip: for any power-of-two size and seed, the
// inverse transform must recover the input and Parseval must hold.
func FuzzSerialInverseRoundTrip(f *testing.F) {
	f.Add(uint8(3), int64(1))
	f.Add(uint8(0), int64(2))
	f.Add(uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, logN uint8, seed int64) {
		n := 1 << (int(logN) % 11) // up to 1024
		x := RandomSignal(n, seed)
		y := Serial(x)
		back := inverseSerial(y)
		if d := MaxAbsDiff(back, x); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: round trip diff %g", n, d)
		}
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		if ex > 0 && math.Abs(ex-ey/float64(n)) > 1e-8*ex {
			t.Fatalf("n=%d: Parseval violated: %g vs %g", n, ex, ey/float64(n))
		}
	})
}

// inverseSerial computes the inverse DFT of y: x with dft(x) = y.
// len(y) must be a power of two.
func inverseSerial(y []complex128) []complex128 {
	n := len(y)
	if n == 0 {
		return nil
	}
	// IFFT via conjugation: x = conj(FFT(conj(y)))/n.
	tmp := make([]complex128, n)
	for i, v := range y {
		tmp[i] = cmplx.Conj(v)
	}
	tmp = Serial(tmp)
	scale := complex(1/float64(n), 0)
	for i, v := range tmp {
		tmp[i] = cmplx.Conj(v) * scale
	}
	return tmp
}
