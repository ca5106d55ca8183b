#include "textflag.h"

// func axpy4AVX(o, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// For j in [0, n), n a multiple of 4:
//	o[j] = (((o[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
// Each product is rounded by VMULPD and each sum by VADDPD, in that order,
// with the running sum as the first addend: no FMA, no reassociation, so
// every lane rounds exactly like the scalar loop in axpy4.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-80
	MOVQ         o+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), R8
	MOVQ         b2+24(FP), R9
	MOVQ         b3+32(FP), R10
	MOVQ         n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           tail

loop8:
	VMULPD  (SI)(AX*8), Y0, Y4
	VMULPD  (R8)(AX*8), Y1, Y5
	VMULPD  (R9)(AX*8), Y2, Y6
	VMULPD  (R10)(AX*8), Y3, Y7
	VMOVUPD (DI)(AX*8), Y8
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y8, Y8
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	VMULPD  32(SI)(AX*8), Y0, Y9
	VMULPD  32(R8)(AX*8), Y1, Y10
	VMULPD  32(R9)(AX*8), Y2, Y11
	VMULPD  32(R10)(AX*8), Y3, Y12
	VMOVUPD 32(DI)(AX*8), Y13
	VADDPD  Y9, Y13, Y13
	VADDPD  Y10, Y13, Y13
	VADDPD  Y11, Y13, Y13
	VADDPD  Y12, Y13, Y13
	VMOVUPD Y13, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8

tail:
	// n is a multiple of 4, so at most one 4-lane block is left.
	CMPQ    AX, CX
	JGE     done
	VMULPD  (SI)(AX*8), Y0, Y4
	VMULPD  (R8)(AX*8), Y1, Y5
	VMULPD  (R9)(AX*8), Y2, Y6
	VMULPD  (R10)(AX*8), Y3, Y7
	VMOVUPD (DI)(AX*8), Y8
	VADDPD  Y4, Y8, Y8
	VADDPD  Y5, Y8, Y8
	VADDPD  Y6, Y8, Y8
	VADDPD  Y7, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)

done:
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
