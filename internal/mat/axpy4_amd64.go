package mat

// detectAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches: CPUID.1:ECX carries the AVX and
// OSXSAVE bits, and XGETBV's XCR0 must enable both the XMM and YMM state.
func detectAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// axpy4AVX is the 4-lane body of axpy4 for n a multiple of 4 (see
// axpy4_amd64.s).
//
//go:noescape
func axpy4AVX(o, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
