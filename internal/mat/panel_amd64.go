package mat

// detectSIMD picks the widest panel body the CPU and OS support. AVX needs
// CPUID.1:ECX's OSXSAVE and AVX bits and XCR0 enabling the XMM and YMM
// state (bits 1, 2). AVX-512 additionally needs CPUID.7:EBX's AVX512F bit
// and XCR0 enabling the opmask and both halves of the ZMM state (bits 5,
// 6, 7), so the OS saves every register the AVX-512 body touches.
func detectSIMD() simdLevel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return simdGeneric
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return simdGeneric
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return simdGeneric
	}
	if maxLeaf >= 7 {
		const avx512f = 1 << 16
		if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f != 0 && xcr0&0xe6 == 0xe6 {
			return simdAVX512
		}
	}
	return simdAVX
}

// panelAVX512 and panelAVX are the assembly bodies of panel (see
// panel_amd64.s); n and kn must be at least 1.
//
//go:noescape
func panelAVX512(o, a, b *float64, n, kn, as, bs int, skip bool)

//go:noescape
func panelAVX(o, a, b *float64, n, kn, as, bs int, skip bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
