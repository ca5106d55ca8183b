#include "textflag.h"

// Both bodies compute, for j in [0, n) and k in [0, kn), n ≥ 1 and kn ≥ 1:
//
//	o[j] += a[k·as]·b[k·bs+j]
//
// One strip of output columns at a time is loaded into registers, takes
// every k in ascending order, and is stored once. Each k rounds one product
// (VMULPD) and one sum (VADDPD, running sum as the first addend): no FMA,
// no reassociation, so every lane rounds like the scalar loop in panelGo.
// A multiplier whose bits, sign dropped, are zero is ±0; with skip set its
// k is not added, exactly like the scalar loop's av == 0 test.
//
// Register use, shared by both bodies:
//	DI  output strip          SI  a          R8  b strip
//	CX  columns left          DX  kn
//	R9  as·8                  R10 bs·8
//	BX  0 to skip zeros, 1 to add every product
//	R11, R12, R13  a, b and k cursors of the current strip
//	AX  scratch (the multiplier's bits)

// KSTART resets the cursors of a strip's k loop.
#define KSTART \
	MOVQ SI, R11; \
	MOVQ R8, R12; \
	MOVQ DX, R13

// KSKIP jumps to next when the multiplier at R11 is ±0 and zeros are
// skipped.
#define KSKIP(next) \
	MOVQ (R11), AX; \
	SHLQ $1, AX; \
	ORQ  BX, AX; \
	JZ   next

// KNEXT advances the cursors and loops back to top while k remains.
#define KNEXT(top) \
	ADDQ R9, R11; \
	ADDQ R10, R12; \
	DECQ R13; \
	JNZ  top

// PANELARGS loads the frame shared by both bodies.
#define PANELARGS \
	MOVQ    o+0(FP), DI; \
	MOVQ    a+8(FP), SI; \
	MOVQ    b+16(FP), R8; \
	MOVQ    n+24(FP), CX; \
	MOVQ    kn+32(FP), DX; \
	MOVQ    as+40(FP), R9; \
	SHLQ    $3, R9; \
	MOVQ    bs+48(FP), R10; \
	SHLQ    $3, R10; \
	MOVBQZX skip+56(FP), BX; \
	XORQ    $1, BX

// func panelAVX512(o, a, b *float64, n, kn, as, bs int, skip bool)
//
// Strips of 32 columns (four ZMM accumulators), then 16, then 8, then the
// last 1–7 columns under an opmask: masked loads never touch memory past
// the row, and the masked store writes only the live lanes.
TEXT ·panelAVX512(SB), NOSPLIT, $0-57
	PANELARGS

s32:
	CMPQ    CX, $32
	JLT     s16
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	KSTART

k32:
	KSKIP(n32)
	VBROADCASTSD (R11), Z4
	VMULPD       (R12), Z4, Z5
	VMULPD       64(R12), Z4, Z6
	VMULPD       128(R12), Z4, Z7
	VMULPD       192(R12), Z4, Z8
	VADDPD       Z5, Z0, Z0
	VADDPD       Z6, Z1, Z1
	VADDPD       Z7, Z2, Z2
	VADDPD       Z8, Z3, Z3

n32:
	KNEXT(k32)
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, R8
	SUBQ    $32, CX
	JMP     s32

s16:
	CMPQ    CX, $16
	JLT     s8
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	KSTART

k16:
	KSKIP(n16)
	VBROADCASTSD (R11), Z4
	VMULPD       (R12), Z4, Z5
	VMULPD       64(R12), Z4, Z6
	VADDPD       Z5, Z0, Z0
	VADDPD       Z6, Z1, Z1

n16:
	KNEXT(k16)
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $16, CX

s8:
	CMPQ    CX, $8
	JLT     s1
	VMOVUPD (DI), Z0
	KSTART

k8:
	KSKIP(n8)
	VBROADCASTSD (R11), Z4
	VMULPD       (R12), Z4, Z5
	VADDPD       Z5, Z0, Z0

n8:
	KNEXT(k8)
	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $8, CX

s1:
	TESTQ     CX, CX
	JZ        done512
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K1
	VMOVUPD.Z (DI), K1, Z0
	KSTART

k1:
	KSKIP(n1)
	VBROADCASTSD (R11), Z4
	VMOVUPD.Z    (R12), K1, Z5
	VMULPD       Z5, Z4, Z5
	VADDPD       Z5, Z0, Z0

n1:
	KNEXT(k1)
	VMOVUPD Z0, K1, (DI)

done512:
	VZEROUPPER
	RET

// tailMask holds three all-ones lanes then three zero lanes: the four
// lanes starting at 8·(3−r) bytes select the first r of a YMM register.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

// func panelAVX(o, a, b *float64, n, kn, as, bs int, skip bool)
//
// Strips of 16 columns (four YMM accumulators), then 8, then 4, then the
// last 1–3 columns through VMASKMOVPD, which neither reads nor writes the
// masked-off lanes.
TEXT ·panelAVX(SB), NOSPLIT, $0-57
	PANELARGS

a16:
	CMPQ    CX, $16
	JLT     a8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	KSTART

ak16:
	KSKIP(an16)
	VBROADCASTSD (R11), Y4
	VMULPD       (R12), Y4, Y5
	VMULPD       32(R12), Y4, Y6
	VMULPD       64(R12), Y4, Y7
	VMULPD       96(R12), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

an16:
	KNEXT(ak16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $16, CX
	JMP     a16

a8:
	CMPQ    CX, $8
	JLT     a4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	KSTART

ak8:
	KSKIP(an8)
	VBROADCASTSD (R11), Y4
	VMULPD       (R12), Y4, Y5
	VMULPD       32(R12), Y4, Y6
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1

an8:
	KNEXT(ak8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $8, CX

a4:
	CMPQ    CX, $4
	JLT     a1
	VMOVUPD (DI), Y0
	KSTART

ak4:
	KSKIP(an4)
	VBROADCASTSD (R11), Y4
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0

an4:
	KNEXT(ak4)
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX

a1:
	TESTQ      CX, CX
	JZ         doneAVX
	LEAQ       tailMask<>+24(SB), AX
	SHLQ       $3, CX
	SUBQ       CX, AX
	VMOVUPD    (AX), Y9
	VMASKMOVPD (DI), Y9, Y0
	KSTART

ak1:
	KSKIP(an1)
	VBROADCASTSD (R11), Y4
	VMASKMOVPD   (R12), Y9, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0

an1:
	KNEXT(ak1)
	VMASKMOVPD Y0, Y9, (DI)

doneAVX:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
