//go:build !purego

#include "textflag.h"

// Eight-lane Montgomery arithmetic for the BLS12-381 base field on AVX-512
// IFMA (lanes.go has the layout). A field element is eight 52-bit limbs;
// each zmm register holds one limb of eight independent elements, and
// VPMADD52LUQ/VPMADD52HUQ add the low/high 52 bits of eight 52×52-bit limb
// products into 64-bit accumulators. Accumulators carry lazily: a limb
// takes at most four products per round, so 64 bits hold every sum.
//
// Every routine is a row kernel: it runs over n consecutive Lanes values
// inside one call, as ff's lane kernel does, and keeps the constants in
// registers across the row.
//
// mulLanes is operand-scanning Montgomery: rounds 0..6 add x·y[i] and
// one 52-bit reduction step m·p (m = t0·(−p⁻¹) mod 2^52), which clears t0;
// round 7 adds x·y[7] and a 20-bit step m′·p (m′ = t0·(−p⁻¹) mod 2^20)
// instead, so the product is x·y·2^−(7·52+20) = x·y·R⁻¹ with R = 2^384,
// exactly Element.Mul's. The result is below 1.125p before the final
// conditional subtraction of p, so each lane ends canonical and equal to
// Element.Mul's. The 20-bit shift needs no carry pass first: a limb t_j
// contributes t_j>>20 to limb j and its low 20 bits, shifted up by 32, to
// limb j−1, and t_0's low 20 bits are zero.
//
// For canonical inputs the limbs x[7], y[7] and p[7] are below 2^17, so the
// high halves of x[7]·y[7] and m′·p[7] are zero and round 7 skips them.
//
// Register plan:
//
//	Z0..Z7     x limbs, then u − p in the final subtraction
//	Z8..Z16    the accumulator, a ring of nine: round i's limb j is
//	           register (i+j) mod 9; the register cleared by a 52-bit step
//	           is the next round's top limb
//	Z17, Z18   −p⁻¹ mod 2^52, the 52-bit mask (broadcast)
//	Z19        m
//	Z20        y[i]
//	Z21        scratch
//	Z22..Z29   p limbs (broadcast)
//	Z30        the 20-bit mask (broadcast)
//
// Constants come from ·laneConst (lanes.go): p[0..7], −p⁻¹, masks.

#define PINV Z17
#define M52 Z18
#define MM Z19
#define B Z20
#define TMP Z21
#define M20 Z30

// LaneBytes is sizeof(Lanes): eight limbs of eight words.
#define LaneBytes 512

#define LOAD_P \
	VPBROADCASTQ ·laneConst+0(SB), Z22  \
	VPBROADCASTQ ·laneConst+8(SB), Z23  \
	VPBROADCASTQ ·laneConst+16(SB), Z24 \
	VPBROADCASTQ ·laneConst+24(SB), Z25 \
	VPBROADCASTQ ·laneConst+32(SB), Z26 \
	VPBROADCASTQ ·laneConst+40(SB), Z27 \
	VPBROADCASTQ ·laneConst+48(SB), Z28 \
	VPBROADCASTQ ·laneConst+56(SB), Z29 \
	VPBROADCASTQ ·laneConst+72(SB), M52

// t_j += lo(x_j·y[i]) and t_{j+1} += hi(x_j·y[i]) for y[i] at off(SI).
#define MULADD(off, t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	VMOVDQU64   off(SI), B \
	VPMADD52LUQ B, Z0, t0 \
	VPMADD52HUQ B, Z0, t1 \
	VPMADD52LUQ B, Z1, t1 \
	VPMADD52HUQ B, Z1, t2 \
	VPMADD52LUQ B, Z2, t2 \
	VPMADD52HUQ B, Z2, t3 \
	VPMADD52LUQ B, Z3, t3 \
	VPMADD52HUQ B, Z3, t4 \
	VPMADD52LUQ B, Z4, t4 \
	VPMADD52HUQ B, Z4, t5 \
	VPMADD52LUQ B, Z5, t5 \
	VPMADD52HUQ B, Z5, t6 \
	VPMADD52LUQ B, Z6, t6 \
	VPMADD52HUQ B, Z6, t7 \
	VPMADD52LUQ B, Z7, t7 \
	VPMADD52HUQ B, Z7, t8

// MULADD for round 7: hi(x_7·y_7) is zero (see above).
#define MULADD7(off, t0, t1, t2, t3, t4, t5, t6, t7) \
	VMOVDQU64   off(SI), B \
	VPMADD52LUQ B, Z0, t0 \
	VPMADD52HUQ B, Z0, t1 \
	VPMADD52LUQ B, Z1, t1 \
	VPMADD52HUQ B, Z1, t2 \
	VPMADD52LUQ B, Z2, t2 \
	VPMADD52HUQ B, Z2, t3 \
	VPMADD52LUQ B, Z3, t3 \
	VPMADD52HUQ B, Z3, t4 \
	VPMADD52LUQ B, Z4, t4 \
	VPMADD52HUQ B, Z4, t5 \
	VPMADD52LUQ B, Z5, t5 \
	VPMADD52HUQ B, Z5, t6 \
	VPMADD52LUQ B, Z6, t6 \
	VPMADD52HUQ B, Z6, t7 \
	VPMADD52LUQ B, Z7, t7

// The 52-bit step: m = t0·(−p⁻¹) mod 2^52, t += m·p, so t0 ≡ 0 mod 2^52;
// t0's carry moves to t1 and t0 is cleared.
#define REDUCE52(t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	VPXORQ      MM, MM, MM \
	VPMADD52LUQ PINV, t0, MM \
	VPMADD52LUQ Z22, MM, t0 \
	VPMADD52HUQ Z22, MM, t1 \
	VPMADD52LUQ Z23, MM, t1 \
	VPMADD52HUQ Z23, MM, t2 \
	VPMADD52LUQ Z24, MM, t2 \
	VPMADD52HUQ Z24, MM, t3 \
	VPMADD52LUQ Z25, MM, t3 \
	VPMADD52HUQ Z25, MM, t4 \
	VPMADD52LUQ Z26, MM, t4 \
	VPMADD52HUQ Z26, MM, t5 \
	VPMADD52LUQ Z27, MM, t5 \
	VPMADD52HUQ Z27, MM, t6 \
	VPMADD52LUQ Z28, MM, t6 \
	VPMADD52HUQ Z28, MM, t7 \
	VPMADD52LUQ Z29, MM, t7 \
	VPMADD52HUQ Z29, MM, t8 \
	VPSRLQ      $52, t0, TMP \
	VPADDQ      TMP, t1, t1 \
	VPXORQ      t0, t0, t0

// The 20-bit step: m′ = t0·(−p⁻¹) mod 2^20, t += m′·p, then t /= 2^20
// limb by limb (hi(m′·p_7) is zero).
#define SHIFT20(a, b) \
	VPSRLQ $20, a, a     \
	VPSLLQ $44, b, TMP   \
	VPSRLQ $12, TMP, TMP \
	VPADDQ TMP, a, a

#define REDUCE20(t0, t1, t2, t3, t4, t5, t6, t7) \
	VPXORQ      MM, MM, MM \
	VPMADD52LUQ PINV, t0, MM \
	VPANDQ      M20, MM, MM \
	VPMADD52LUQ Z22, MM, t0 \
	VPMADD52HUQ Z22, MM, t1 \
	VPMADD52LUQ Z23, MM, t1 \
	VPMADD52HUQ Z23, MM, t2 \
	VPMADD52LUQ Z24, MM, t2 \
	VPMADD52HUQ Z24, MM, t3 \
	VPMADD52LUQ Z25, MM, t3 \
	VPMADD52HUQ Z25, MM, t4 \
	VPMADD52LUQ Z26, MM, t4 \
	VPMADD52HUQ Z26, MM, t5 \
	VPMADD52LUQ Z27, MM, t5 \
	VPMADD52HUQ Z27, MM, t6 \
	VPMADD52LUQ Z28, MM, t6 \
	VPMADD52HUQ Z28, MM, t7 \
	VPMADD52LUQ Z29, MM, t7 \
	SHIFT20(t0, t1) \
	SHIFT20(t1, t2) \
	SHIFT20(t2, t3) \
	SHIFT20(t3, t4) \
	SHIFT20(t4, t5) \
	SHIFT20(t5, t6) \
	SHIFT20(t6, t7) \
	VPSRLQ      $20, t7, t7

// Carry from limb a into limb b, unsigned (CARRY) or signed (SCARRY).
#define CARRY(a, b) \
	VPSRLQ $52, a, TMP \
	VPANDQ M52, a, a   \
	VPADDQ TMP, b, b

#define SCARRY(a, b) \
	VPSRAQ $52, a, TMP \
	VPANDQ M52, a, a   \
	VPADDQ TMP, b, b

// Z0..Z7 hold d = x − y (or x + y − p, or a product minus p) in
// unnormalized limbs, d ∈ [−p, p):
// normalize with signed carries, add p back in the lanes where d < 0
// (K1), carry again, and store to z at DX.
#define SUBTAIL \
	SCARRY(Z0, Z1) \
	SCARRY(Z1, Z2) \
	SCARRY(Z2, Z3) \
	SCARRY(Z3, Z4) \
	SCARRY(Z4, Z5) \
	SCARRY(Z5, Z6) \
	SCARRY(Z6, Z7) \
	VPXORQ MM, MM, MM \
	VPCMPQ $1, MM, Z7, K1 \
	VPADDQ Z22, Z0, K1, Z0 \
	VPADDQ Z23, Z1, K1, Z1 \
	VPADDQ Z24, Z2, K1, Z2 \
	VPADDQ Z25, Z3, K1, Z3 \
	VPADDQ Z26, Z4, K1, Z4 \
	VPADDQ Z27, Z5, K1, Z5 \
	VPADDQ Z28, Z6, K1, Z6 \
	VPADDQ Z29, Z7, K1, Z7 \
	CARRY(Z0, Z1) \
	CARRY(Z1, Z2) \
	CARRY(Z2, Z3) \
	CARRY(Z3, Z4) \
	CARRY(Z4, Z5) \
	CARRY(Z5, Z6) \
	CARRY(Z6, Z7) \
	VMOVDQU64 Z0, 0(DX) \
	VMOVDQU64 Z1, 64(DX) \
	VMOVDQU64 Z2, 128(DX) \
	VMOVDQU64 Z3, 192(DX) \
	VMOVDQU64 Z4, 256(DX) \
	VMOVDQU64 Z5, 320(DX) \
	VMOVDQU64 Z6, 384(DX) \
	VMOVDQU64 Z7, 448(DX)

// func mulLanes(z, x, y *Lanes, n int)
//
// z[k] = x[k]·y[k]·2^−384 mod p lane-wise for k < n. z[k] is written after
// the last read of x[k] and y[k], so z may alias x or y (index for index).
TEXT ·mulLanes(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ n+24(FP), CX
	TESTQ CX, CX
	JEQ  mulDone
	LOAD_P
	VPBROADCASTQ ·laneConst+64(SB), PINV
	VPBROADCASTQ ·laneConst+80(SB), M20

mulLoop:
	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VMOVDQU64 256(DI), Z4
	VMOVDQU64 320(DI), Z5
	VMOVDQU64 384(DI), Z6
	VMOVDQU64 448(DI), Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	MULADD(0, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16)
	REDUCE52(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16)
	MULADD(64, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z8)
	REDUCE52(Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z8)
	MULADD(128, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z8, Z9)
	REDUCE52(Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z8, Z9)
	MULADD(192, Z11, Z12, Z13, Z14, Z15, Z16, Z8, Z9, Z10)
	REDUCE52(Z11, Z12, Z13, Z14, Z15, Z16, Z8, Z9, Z10)
	MULADD(256, Z12, Z13, Z14, Z15, Z16, Z8, Z9, Z10, Z11)
	REDUCE52(Z12, Z13, Z14, Z15, Z16, Z8, Z9, Z10, Z11)
	MULADD(320, Z13, Z14, Z15, Z16, Z8, Z9, Z10, Z11, Z12)
	REDUCE52(Z13, Z14, Z15, Z16, Z8, Z9, Z10, Z11, Z12)
	MULADD(384, Z14, Z15, Z16, Z8, Z9, Z10, Z11, Z12, Z13)
	REDUCE52(Z14, Z15, Z16, Z8, Z9, Z10, Z11, Z12, Z13)
	MULADD7(448, Z15, Z16, Z8, Z9, Z10, Z11, Z12, Z13)
	REDUCE20(Z15, Z16, Z8, Z9, Z10, Z11, Z12, Z13)

	// u is below 1.125p in unnormalized limbs: subtract p, and SUBTAIL
	// adds it back where u < p.
	VPSUBQ Z22, Z15, Z0
	VPSUBQ Z23, Z16, Z1
	VPSUBQ Z24, Z8, Z2
	VPSUBQ Z25, Z9, Z3
	VPSUBQ Z26, Z10, Z4
	VPSUBQ Z27, Z11, Z5
	VPSUBQ Z28, Z12, Z6
	VPSUBQ Z29, Z13, Z7
	SUBTAIL
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, DI
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  mulLoop
	VZEROUPPER

mulDone:
	RET

// func subLanes(z, x, y *Lanes, n int)
//
// z[k] = x[k] − y[k] lane-wise for k < n; z may alias x or y.
TEXT ·subLanes(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ n+24(FP), CX
	TESTQ CX, CX
	JEQ  subDone
	LOAD_P

subLoop:
	VMOVDQU64 0(DI), Z0
	VPSUBQ 0(SI), Z0, Z0
	VMOVDQU64 64(DI), Z1
	VPSUBQ 64(SI), Z1, Z1
	VMOVDQU64 128(DI), Z2
	VPSUBQ 128(SI), Z2, Z2
	VMOVDQU64 192(DI), Z3
	VPSUBQ 192(SI), Z3, Z3
	VMOVDQU64 256(DI), Z4
	VPSUBQ 256(SI), Z4, Z4
	VMOVDQU64 320(DI), Z5
	VPSUBQ 320(SI), Z5, Z5
	VMOVDQU64 384(DI), Z6
	VPSUBQ 384(SI), Z6, Z6
	VMOVDQU64 448(DI), Z7
	VPSUBQ 448(SI), Z7, Z7
	SUBTAIL
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, DI
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  subLoop
	VZEROUPPER

subDone:
	RET

// func addLanes(z, x, y *Lanes, n int)
//
// z[k] = x[k] + y[k] lane-wise for k < n; z may alias x or y.
TEXT ·addLanes(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ n+24(FP), CX
	TESTQ CX, CX
	JEQ  addDone
	LOAD_P

addLoop:
	VMOVDQU64 0(DI), Z0
	VPADDQ 0(SI), Z0, Z0
	VPSUBQ Z22, Z0, Z0
	VMOVDQU64 64(DI), Z1
	VPADDQ 64(SI), Z1, Z1
	VPSUBQ Z23, Z1, Z1
	VMOVDQU64 128(DI), Z2
	VPADDQ 128(SI), Z2, Z2
	VPSUBQ Z24, Z2, Z2
	VMOVDQU64 192(DI), Z3
	VPADDQ 192(SI), Z3, Z3
	VPSUBQ Z25, Z3, Z3
	VMOVDQU64 256(DI), Z4
	VPADDQ 256(SI), Z4, Z4
	VPSUBQ Z26, Z4, Z4
	VMOVDQU64 320(DI), Z5
	VPADDQ 320(SI), Z5, Z5
	VPSUBQ Z27, Z5, Z5
	VMOVDQU64 384(DI), Z6
	VPADDQ 384(SI), Z6, Z6
	VPSUBQ Z28, Z6, Z6
	VMOVDQU64 448(DI), Z7
	VPADDQ 448(SI), Z7, Z7
	VPSUBQ Z29, Z7, Z7
	SUBTAIL
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, DI
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  addLoop
	VZEROUPPER

addDone:
	RET

// An 8×8 qword transpose: qword w of i_l goes to qword l of o_w. Within
// 128-bit blocks VPUNPCKLQDQ/VPUNPCKHQDQ interleave pairs of rows into
// Z24..Z31, then two rounds of VSHUFI64X2 move the blocks across (the
// first back into i0..i7, which it clobbers).
#define TRANSPOSE(i0, i1, i2, i3, i4, i5, i6, i7, o0, o1, o2, o3, o4, o5, o6, o7) \
	VPUNPCKLQDQ i1, i0, Z24 \
	VPUNPCKHQDQ i1, i0, Z25 \
	VPUNPCKLQDQ i3, i2, Z26 \
	VPUNPCKHQDQ i3, i2, Z27 \
	VPUNPCKLQDQ i5, i4, Z28 \
	VPUNPCKHQDQ i5, i4, Z29 \
	VPUNPCKLQDQ i7, i6, Z30 \
	VPUNPCKHQDQ i7, i6, Z31 \
	VSHUFI64X2 $0x88, Z26, Z24, i0 \
	VSHUFI64X2 $0xdd, Z26, Z24, i1 \
	VSHUFI64X2 $0x88, Z27, Z25, i2 \
	VSHUFI64X2 $0xdd, Z27, Z25, i3 \
	VSHUFI64X2 $0x88, Z30, Z28, i4 \
	VSHUFI64X2 $0xdd, Z30, Z28, i5 \
	VSHUFI64X2 $0x88, Z31, Z29, i6 \
	VSHUFI64X2 $0xdd, Z31, Z29, i7 \
	VSHUFI64X2 $0x88, i4, i0, o0 \
	VSHUFI64X2 $0xdd, i4, i0, o4 \
	VSHUFI64X2 $0x88, i5, i1, o2 \
	VSHUFI64X2 $0xdd, i5, i1, o6 \
	VSHUFI64X2 $0x88, i6, i2, o1 \
	VSHUFI64X2 $0xdd, i6, i2, o5 \
	VSHUFI64X2 $0x88, i7, i3, o3 \
	VSHUFI64X2 $0xdd, i7, i3, o7

// func packLanes(z *Lanes, n int)
//
// Turns z[k] for k < n from the staged form (row l holds lane l's six
// Montgomery words, as Set writes them) into the limb-major radix-2^52
// form in place: a transpose gives word w of every lane in Z8+w, and
// shifts cut the six words into eight 52-bit limbs.
TEXT ·packLanes(SB), NOSPLIT, $0-16
	MOVQ z+0(FP), DX
	MOVQ n+8(FP), CX
	TESTQ CX, CX
	JEQ  packDone
	VPBROADCASTQ ·laneConst+72(SB), M52

packLoop:
	VMOVDQU64 0(DX), Z0
	VMOVDQU64 64(DX), Z1
	VMOVDQU64 128(DX), Z2
	VMOVDQU64 192(DX), Z3
	VMOVDQU64 256(DX), Z4
	VMOVDQU64 320(DX), Z5
	VMOVDQU64 384(DX), Z6
	VMOVDQU64 448(DX), Z7
	TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	VPANDQ M52, Z8, Z0
	VPSRLQ $52, Z8, Z1
	VPSLLQ $12, Z9, TMP
	VPORQ TMP, Z1, Z1
	VPANDQ M52, Z1, Z1
	VPSRLQ $40, Z9, Z2
	VPSLLQ $24, Z10, TMP
	VPORQ TMP, Z2, Z2
	VPANDQ M52, Z2, Z2
	VPSRLQ $28, Z10, Z3
	VPSLLQ $36, Z11, TMP
	VPORQ TMP, Z3, Z3
	VPANDQ M52, Z3, Z3
	VPSRLQ $16, Z11, Z4
	VPSLLQ $48, Z12, TMP
	VPORQ TMP, Z4, Z4
	VPANDQ M52, Z4, Z4
	VPSRLQ $4, Z12, Z5
	VPANDQ M52, Z5, Z5
	VPSRLQ $56, Z12, Z6
	VPSLLQ $8, Z13, TMP
	VPORQ TMP, Z6, Z6
	VPANDQ M52, Z6, Z6
	VPSRLQ $44, Z13, Z7
	VMOVDQU64 Z0, 0(DX)
	VMOVDQU64 Z1, 64(DX)
	VMOVDQU64 Z2, 128(DX)
	VMOVDQU64 Z3, 192(DX)
	VMOVDQU64 Z4, 256(DX)
	VMOVDQU64 Z5, 320(DX)
	VMOVDQU64 Z6, 384(DX)
	VMOVDQU64 Z7, 448(DX)
	ADDQ $LaneBytes, DX
	DECQ CX
	JNE  packLoop
	VZEROUPPER

packDone:
	RET

// func unpackLanes(z *Lanes, n int)
//
// packLanes backwards: joins the eight limbs into six words per lane
// (words 6 and 7 of each row become zero) and transposes them back into
// one row per lane.
TEXT ·unpackLanes(SB), NOSPLIT, $0-16
	MOVQ z+0(FP), DX
	MOVQ n+8(FP), CX
	TESTQ CX, CX
	JEQ  unpackDone

unpackLoop:
	VMOVDQU64 0(DX), Z0
	VMOVDQU64 64(DX), Z1
	VMOVDQU64 128(DX), Z2
	VMOVDQU64 192(DX), Z3
	VMOVDQU64 256(DX), Z4
	VMOVDQU64 320(DX), Z5
	VMOVDQU64 384(DX), Z6
	VMOVDQU64 448(DX), Z7
	VPSLLQ $52, Z1, TMP
	VPORQ TMP, Z0, Z8
	VPSRLQ $12, Z1, Z9
	VPSLLQ $40, Z2, TMP
	VPORQ TMP, Z9, Z9
	VPSRLQ $24, Z2, Z10
	VPSLLQ $28, Z3, TMP
	VPORQ TMP, Z10, Z10
	VPSRLQ $36, Z3, Z11
	VPSLLQ $16, Z4, TMP
	VPORQ TMP, Z11, Z11
	VPSRLQ $48, Z4, Z12
	VPSLLQ $4, Z5, TMP
	VPORQ TMP, Z12, Z12
	VPSLLQ $56, Z6, TMP
	VPORQ TMP, Z12, Z12
	VPSRLQ $8, Z6, Z13
	VPSLLQ $44, Z7, TMP
	VPORQ TMP, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	TRANSPOSE(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	VMOVDQU64 Z0, 0(DX)
	VMOVDQU64 Z1, 64(DX)
	VMOVDQU64 Z2, 128(DX)
	VMOVDQU64 Z3, 192(DX)
	VMOVDQU64 Z4, 256(DX)
	VMOVDQU64 Z5, 320(DX)
	VMOVDQU64 Z6, 384(DX)
	VMOVDQU64 Z7, 448(DX)
	ADDQ $LaneBytes, DX
	DECQ CX
	JNE  unpackLoop
	VZEROUPPER

unpackDone:
	RET
