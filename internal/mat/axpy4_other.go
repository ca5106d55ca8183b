//go:build !amd64

package mat

// detectAVX is always false off amd64: axpy4 runs its pure-Go loop.
func detectAVX() bool { return false }

func axpy4AVX(o, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64) {
	panic("mat: axpy4AVX called without AVX")
}
