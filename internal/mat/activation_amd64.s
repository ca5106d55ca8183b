#include "textflag.h"

// activateAVX512 runs the activation slab eight lanes at a time with the
// operation sequence of expGo, sigmoidGo and tanhGo (activation.go): the
// same IEEE adds, multiplies and divides, in the same order, no FMA, so
// every lane rounds exactly like the reference. Integer lane ops build the
// two scale factors from t's bits. The last 1–7 elements go under an
// opmask: masked loads never read past src and the masked store writes
// only the live lanes of dst.

// actConst holds the scalar constants of the reference; each is
// broadcast into a register once per call.
DATA actConst<>+0(SB)/8, $0x3ff71547652b82fe  // log2e
DATA actConst<>+8(SB)/8, $0x4338000000000000  // expRnd = 1.5·2⁵²
DATA actConst<>+16(SB)/8, $0x3fe62e42fee00000 // ln2Hi
DATA actConst<>+24(SB)/8, $0x3dea39ef35793c76 // ln2Lo
DATA actConst<>+32(SB)/8, $0x40862e42fefa39ef // expMax
DATA actConst<>+40(SB)/8, $0xc0874910d52d3051 // expMin
DATA actConst<>+48(SB)/8, $0x7ff0000000000000 // +Inf
DATA actConst<>+56(SB)/8, $1023               // exponent bias (integer)
DATA actConst<>+64(SB)/8, $0x3ff0000000000000 // 1
DATA actConst<>+72(SB)/8, $0x8000000000000000 // sign bit
DATA actConst<>+80(SB)/8, $0x4000000000000000 // 2
GLOBL actConst<>(SB), RODATA|NOPTR, $88

// HORNER takes one step p = p·r + c, c being expPoly[i] at byte offset off.
#define HORNER(off) \
	VMULPD      Z3, Z5, Z5; \
	VADDPD.BCST ·expPoly+off(SB), Z5, Z5

// EXP8 sets Z5 = exp(Z0) lane-wise, clobbering Z1–Z8 and K2–K4.
//	K2 NaN lanes (they return x), K3 x > expMax (+Inf), K4 x < expMin (+0)
//	Z1 t = x·log2e + expRnd       Z2 k = t − expRnd
//	Z3 r = (x − k·ln2Hi) − k·ln2Lo
//	Z6 k as an integer, from t's bits; Z7, Z8 2^⌊k/2⌋ and 2^(k−⌊k/2⌋)
#define EXP8 \
	VCMPPD       $3, Z0, Z0, K2; \
	VCMPPD       $0x1e, Z20, Z0, K3; \
	VCMPPD       $0x11, Z21, Z0, K4; \
	VMULPD       Z16, Z0, Z1; \
	VADDPD       Z17, Z1, Z1; \
	VSUBPD       Z17, Z1, Z2; \
	VMULPD       Z18, Z2, Z3; \
	VSUBPD       Z3, Z0, Z3; \
	VMULPD       Z19, Z2, Z4; \
	VSUBPD       Z4, Z3, Z3; \
	VBROADCASTSD ·expPoly+0(SB), Z5; \
	HORNER(8); \
	HORNER(16); \
	HORNER(24); \
	HORNER(32); \
	HORNER(40); \
	HORNER(48); \
	HORNER(56); \
	HORNER(64); \
	HORNER(72); \
	HORNER(80); \
	HORNER(88); \
	HORNER(96); \
	HORNER(104); \
	VPSUBQ       Z17, Z1, Z6; \
	VPSRAQ       $1, Z6, Z7; \
	VPSUBQ       Z7, Z6, Z8; \
	VPADDQ       Z23, Z7, Z7; \
	VPSLLQ       $52, Z7, Z7; \
	VPADDQ       Z23, Z8, Z8; \
	VPSLLQ       $52, Z8, Z8; \
	VMULPD       Z7, Z5, Z5; \
	VMULPD       Z8, Z5, Z5; \
	VMOVAPD      Z22, K3, Z5; \
	VPXORQ       Z5, Z5, K4, Z5; \
	VMOVAPD      Z0, K2, Z5

// func activateAVX512(dst, src *float64, n int, kind actKind)
//
// n ≥ 1. Register use:
//	DI dst   SI src   CX elements left   DX kind (0 exp, 1 sigmoid, 2 tanh)
//	K1 live lanes of the current vector   Z9 x, kept for tanh's sign
//	Z16–Z26 the broadcast constants, in actConst order
TEXT ·activateAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         kind+24(FP), DX
	VBROADCASTSD actConst<>+0(SB), Z16
	VBROADCASTSD actConst<>+8(SB), Z17
	VBROADCASTSD actConst<>+16(SB), Z18
	VBROADCASTSD actConst<>+24(SB), Z19
	VBROADCASTSD actConst<>+32(SB), Z20
	VBROADCASTSD actConst<>+40(SB), Z21
	VBROADCASTSD actConst<>+48(SB), Z22
	VBROADCASTSD actConst<>+56(SB), Z23
	VBROADCASTSD actConst<>+64(SB), Z24
	VBROADCASTSD actConst<>+72(SB), Z25
	VBROADCASTSD actConst<>+80(SB), Z26

vec:
	MOVQ  $0xff, AX
	CMPQ  CX, $8
	JGE   load
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX

load:
	KMOVW     AX, K1
	VMOVUPD.Z (SI), K1, Z0
	CMPQ      DX, $1
	JLT       exp
	JGT       tanhIn
	VPXORQ    Z25, Z0, Z0 // sigmoid: exp(−x)
	JMP       exp

tanhIn:
	VMOVAPD Z0, Z9
	VPANDNQ Z0, Z25, Z0 // |x|
	VADDPD  Z0, Z0, Z0  // 2|x|

exp:
	EXP8
	CMPQ   DX, $1
	JLT    store
	VADDPD Z24, Z5, Z5 // exp + 1
	JGT    tanhOut
	VDIVPD Z5, Z24, Z5 // sigmoid: 1/(1 + exp(−x))
	JMP    store

tanhOut:
	VDIVPD  Z5, Z26, Z5 // 2/(exp(2|x|) + 1)
	VSUBPD  Z5, Z24, Z5 // 1 − that
	VPANDNQ Z5, Z25, Z5 // copysign(·, x)
	VPANDQ  Z25, Z9, Z9
	VPORQ   Z9, Z5, Z5

store:
	VMOVUPD Z5, K1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JGT     vec
	VZEROUPPER
	RET
