//go:build !amd64

package mat

// detectSIMD is always generic off amd64: panel runs its pure-Go loop.
func detectSIMD() simdLevel { return simdGeneric }

func panelAVX512(o, a, b *float64, n, kn, as, bs int, skip bool) {
	panic("mat: panelAVX512 called off amd64")
}

func panelAVX(o, a, b *float64, n, kn, as, bs int, skip bool) {
	panic("mat: panelAVX called off amd64")
}
