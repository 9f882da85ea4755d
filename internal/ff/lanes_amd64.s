//go:build !purego

#include "textflag.h"

// Eight-lane Montgomery arithmetic for the BLS12-381 scalar field on
// AVX-512 IFMA (lanes.go has the layout): internal/fp's lane kernel resized
// to five 52-bit limbs. Each zmm register holds one limb of eight
// independent elements, and VPMADD52LUQ/VPMADD52HUQ add the low/high 52
// bits of eight 52×52-bit limb products into 64-bit accumulators, which
// carry lazily: a limb takes at most four products per round and there are
// five rounds, so 64 bits hold every sum.
//
// Every routine is a row kernel: it runs over n consecutive Lanes values
// (or n groups of eight elements) inside one call, and keeps the constants
// in registers across the row.
//
// mulLanes is operand-scanning Montgomery: rounds 0..3 add x·y[i] and one
// 52-bit reduction step m·q (m = t0·(−q⁻¹) mod 2^52), which clears t0;
// round 4 adds x·y[4] and a 48-bit step m′·q (m′ = t0·(−q⁻¹) mod 2^48)
// instead, so the product is x·y·2^−(4·52+48) = x·y·R⁻¹ with R = 2^256,
// exactly Element.Mul's. The result is below q²/2^256 + q < 1.46q before
// the final conditional subtraction of q, so each lane ends canonical and
// equal to Element.Mul's. The 48-bit shift needs no carry pass first: a
// limb t_j contributes t_j>>48 to limb j and its low 48 bits, shifted up
// by 4, to limb j−1, and t_0's low 48 bits are zero. Unlike fp, the top
// limbs of canonical inputs (below 2^47) and of q make nonzero high halves
// in round 4, so that round writes all six accumulator limbs and the sixth
// folds into limb 4 whole.
//
// One round of one row is a chain of dependent IFMA latencies (m waits for
// t0, and the next round for m·q), so mulLanes runs two rows per iteration,
// each with its own accumulator ring, round by round, and the rings fill
// each other's latency. The x limbs are read as memory operands of the
// products, which leaves registers for both rings.
//
// Register plan:
//
//	Z0..Z4     u − q in the final subtraction (add and sub keep their
//	           operands here too; pack and unpack have their own plan)
//	Z5..Z10    row a's accumulator, a ring of six: round i's limb j is
//	           register 5 + (i+j) mod 6; the register cleared by a 52-bit
//	           step is the next round's top limb
//	Z22..Z27   row b's accumulator ring, laid out the same way
//	Z11..Z15   q limbs (broadcast)
//	Z16, Z17   −q⁻¹ mod 2^52, the 52-bit mask (broadcast)
//	Z18, Z28   m of rows a and b
//	Z19, Z29   y[i] of rows a and b
//	Z20, Z30   scratch of rows a and b
//	Z21        the 48-bit mask (broadcast)
//
// Constants come from ·laneConst (lanes.go): q[0..4], −q⁻¹, masks.

#define PINV Z16
#define M52 Z17
#define MM Z18
#define TMP Z20
#define M48 Z21

// LaneBytes is sizeof(Lanes): five limbs of eight words.
#define LaneBytes 320

#define LOAD_Q \
	VPBROADCASTQ ·laneConst+0(SB), Z11  \
	VPBROADCASTQ ·laneConst+8(SB), Z12  \
	VPBROADCASTQ ·laneConst+16(SB), Z13 \
	VPBROADCASTQ ·laneConst+24(SB), Z14 \
	VPBROADCASTQ ·laneConst+32(SB), Z15 \
	VPBROADCASTQ ·laneConst+48(SB), M52

// t_j += lo(x_j·y[i]) and t_{j+1} += hi(x_j·y[i]) for y[i] at off(yp) and
// the x limbs at xp, with y[i] in b.
#define MULADD(off, yp, xp, b, t0, t1, t2, t3, t4, t5) \
	VMOVDQU64   off(yp), b \
	VPMADD52LUQ 0(xp), b, t0 \
	VPMADD52HUQ 0(xp), b, t1 \
	VPMADD52LUQ 64(xp), b, t1 \
	VPMADD52HUQ 64(xp), b, t2 \
	VPMADD52LUQ 128(xp), b, t2 \
	VPMADD52HUQ 128(xp), b, t3 \
	VPMADD52LUQ 192(xp), b, t3 \
	VPMADD52HUQ 192(xp), b, t4 \
	VPMADD52LUQ 256(xp), b, t4 \
	VPMADD52HUQ 256(xp), b, t5

// t += m·q for the m in mm.
#define ADDMQ(mm, t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ Z11, mm, t0 \
	VPMADD52HUQ Z11, mm, t1 \
	VPMADD52LUQ Z12, mm, t1 \
	VPMADD52HUQ Z12, mm, t2 \
	VPMADD52LUQ Z13, mm, t2 \
	VPMADD52HUQ Z13, mm, t3 \
	VPMADD52LUQ Z14, mm, t3 \
	VPMADD52HUQ Z14, mm, t4 \
	VPMADD52LUQ Z15, mm, t4 \
	VPMADD52HUQ Z15, mm, t5

// The 52-bit step: m = t0·(−q⁻¹) mod 2^52, t += m·q, so t0 ≡ 0 mod 2^52;
// t0's carry moves to t1 and t0 is cleared.
#define REDUCE52(mm, tmp, t0, t1, t2, t3, t4, t5) \
	VPXORQ      mm, mm, mm \
	VPMADD52LUQ PINV, t0, mm \
	ADDMQ(mm, t0, t1, t2, t3, t4, t5) \
	VPSRLQ      $52, t0, tmp \
	VPADDQ      tmp, t1, t1 \
	VPXORQ      t0, t0, t0

// The 48-bit step: m′ = t0·(−q⁻¹) mod 2^48, t += m′·q, then t /= 2^48
// limb by limb into t0..t4 (t5 lands in t4 whole, shifted up by 4).
#define SHIFT48(tmp, a, b) \
	VPSRLQ $48, a, a     \
	VPSLLQ $16, b, tmp   \
	VPSRLQ $12, tmp, tmp \
	VPADDQ tmp, a, a

#define REDUCE48(mm, tmp, t0, t1, t2, t3, t4, t5) \
	VPXORQ      mm, mm, mm \
	VPMADD52LUQ PINV, t0, mm \
	VPANDQ      M48, mm, mm \
	ADDMQ(mm, t0, t1, t2, t3, t4, t5) \
	SHIFT48(tmp, t0, t1) \
	SHIFT48(tmp, t1, t2) \
	SHIFT48(tmp, t2, t3) \
	SHIFT48(tmp, t3, t4) \
	VPSRLQ      $48, t4, t4 \
	VPSLLQ      $4, t5, tmp \
	VPADDQ      tmp, t4, t4

// Carry from limb a into limb b, unsigned (CARRY) or signed (SCARRY).
#define CARRY(a, b) \
	VPSRLQ $52, a, TMP \
	VPANDQ M52, a, a   \
	VPADDQ TMP, b, b

#define SCARRY(a, b) \
	VPSRAQ $52, a, TMP \
	VPANDQ M52, a, a   \
	VPADDQ TMP, b, b

// Z0..Z4 hold d = x − y (or x + y − q, or a product minus q) in
// unnormalized limbs, d ∈ [−q, q): normalize with signed carries, add q
// back in the lanes where d < 0 (K1), carry again, and store to z at zp.
#define SUBTAIL(zp) \
	SCARRY(Z0, Z1) \
	SCARRY(Z1, Z2) \
	SCARRY(Z2, Z3) \
	SCARRY(Z3, Z4) \
	VPXORQ MM, MM, MM \
	VPCMPQ $1, MM, Z4, K1 \
	VPADDQ Z11, Z0, K1, Z0 \
	VPADDQ Z12, Z1, K1, Z1 \
	VPADDQ Z13, Z2, K1, Z2 \
	VPADDQ Z14, Z3, K1, Z3 \
	VPADDQ Z15, Z4, K1, Z4 \
	CARRY(Z0, Z1) \
	CARRY(Z1, Z2) \
	CARRY(Z2, Z3) \
	CARRY(Z3, Z4) \
	VMOVDQU64 Z0, 0(zp) \
	VMOVDQU64 Z1, 64(zp) \
	VMOVDQU64 Z2, 128(zp) \
	VMOVDQU64 Z3, 192(zp) \
	VMOVDQU64 Z4, 256(zp)

// A product u below 1.46q, in the ring t (round 4's limb order):
// subtract q, and SUBTAIL adds it back where u < q and stores u to zp.
#define MULTAIL(zp, t0, t1, t2, t3, t4) \
	VPSUBQ Z11, t0, Z0 \
	VPSUBQ Z12, t1, Z1 \
	VPSUBQ Z13, t2, Z2 \
	VPSUBQ Z14, t3, Z3 \
	VPSUBQ Z15, t4, Z4 \
	SUBTAIL(zp)

// One round of both rows: row a (x at DI, y at SI, ring a0..a5) and row b
// (x at R9, y at R10, ring b0..b5).
#define ROUND52(off, a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5) \
	MULADD(off, SI, DI, Z19, a0, a1, a2, a3, a4, a5) \
	MULADD(off, R10, R9, Z29, b0, b1, b2, b3, b4, b5) \
	REDUCE52(MM, TMP, a0, a1, a2, a3, a4, a5) \
	REDUCE52(Z28, Z30, b0, b1, b2, b3, b4, b5)

// func mulLanes(z, x, y *Lanes, n, yStep int)
//
// z[k] = x[k]·y·2^−256 mod q lane-wise for k < n, where y advances yStep
// bytes per k: LaneBytes for a row of multipliers, 0 for one multiplier.
// Rows k and k+1 run together (rows a and b); an odd last row runs as both.
// Both rows are stored after the last read of their x and y, so z may
// alias x or y (index for index).
TEXT ·mulLanes(SB), NOSPLIT, $0-40
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ yStep+32(FP), R8
	TESTQ CX, CX
	JEQ  mulDone
	LOAD_Q
	VPBROADCASTQ ·laneConst+40(SB), PINV
	VPBROADCASTQ ·laneConst+56(SB), M48

mulLoop:
	// Row b is row k+1, or row k again when it is the last.
	LEAQ LaneBytes(DX), R11
	LEAQ LaneBytes(DI), R9
	LEAQ (SI)(R8*1), R10
	CMPQ CX, $1
	CMOVQEQ DX, R11
	CMOVQEQ DI, R9
	CMOVQEQ SI, R10
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	ROUND52(0, Z5, Z6, Z7, Z8, Z9, Z10, Z22, Z23, Z24, Z25, Z26, Z27)
	ROUND52(64, Z6, Z7, Z8, Z9, Z10, Z5, Z23, Z24, Z25, Z26, Z27, Z22)
	ROUND52(128, Z7, Z8, Z9, Z10, Z5, Z6, Z24, Z25, Z26, Z27, Z22, Z23)
	ROUND52(192, Z8, Z9, Z10, Z5, Z6, Z7, Z25, Z26, Z27, Z22, Z23, Z24)
	MULADD(256, SI, DI, Z19, Z9, Z10, Z5, Z6, Z7, Z8)
	MULADD(256, R10, R9, Z29, Z26, Z27, Z22, Z23, Z24, Z25)
	REDUCE48(MM, TMP, Z9, Z10, Z5, Z6, Z7, Z8)
	REDUCE48(Z28, Z30, Z26, Z27, Z22, Z23, Z24, Z25)
	MULTAIL(DX, Z9, Z10, Z5, Z6, Z7)
	MULTAIL(R11, Z26, Z27, Z22, Z23, Z24)
	ADDQ $(2*LaneBytes), DX
	ADDQ $(2*LaneBytes), DI
	LEAQ (SI)(R8*2), SI
	SUBQ $2, CX
	JGT  mulLoop
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
	LOAD_Q

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
	SUBTAIL(DX)
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
	LOAD_Q

addLoop:
	VMOVDQU64 0(DI), Z0
	VPADDQ 0(SI), Z0, Z0
	VPSUBQ Z11, Z0, Z0
	VMOVDQU64 64(DI), Z1
	VPADDQ 64(SI), Z1, Z1
	VPSUBQ Z12, Z1, Z1
	VMOVDQU64 128(DI), Z2
	VPADDQ 128(SI), Z2, Z2
	VPSUBQ Z13, Z2, Z2
	VMOVDQU64 192(DI), Z3
	VPADDQ 192(SI), Z3, Z3
	VPSUBQ Z14, Z3, Z3
	VMOVDQU64 256(DI), Z4
	VPADDQ 256(SI), Z4, Z4
	VPSUBQ Z15, Z4, Z4
	SUBTAIL(DX)
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, DI
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  addLoop
	VZEROUPPER

addDone:
	RET

// VPERMT2Q index vectors for the 4×8 transpose below: from a pair of
// registers holding elements (a, b) and (c, d), transLo takes words 0 and
// 1 of each, [a0 b0 c0 d0 a1 b1 c1 d1], and transHi words 2 and 3. The
// same permutations take such rows back to element order.
DATA transLo<>+0(SB)/8, $0
DATA transLo<>+8(SB)/8, $4
DATA transLo<>+16(SB)/8, $8
DATA transLo<>+24(SB)/8, $12
DATA transLo<>+32(SB)/8, $1
DATA transLo<>+40(SB)/8, $5
DATA transLo<>+48(SB)/8, $9
DATA transLo<>+56(SB)/8, $13
GLOBL transLo<>(SB), RODATA|NOPTR, $64
DATA transHi<>+0(SB)/8, $2
DATA transHi<>+8(SB)/8, $6
DATA transHi<>+16(SB)/8, $10
DATA transHi<>+24(SB)/8, $14
DATA transHi<>+32(SB)/8, $3
DATA transHi<>+40(SB)/8, $7
DATA transHi<>+48(SB)/8, $11
DATA transHi<>+56(SB)/8, $15
GLOBL transHi<>(SB), RODATA|NOPTR, $64

// A 4×8 qword transpose: i0..i3 hold eight elements in order, two per
// register; o_w gets word w of every element. VPERMT2Q gathers words
// 0–1 and 2–3 of four elements per pair of registers (Z24..Z27), then
// VSHUFI64X2 joins the halves: o0 = words 0 of elements 0–3 and 4–7.
// Clobbers i0 and i2.
#define TRANSPOSE4(i0, i1, i2, i3, o0, o1, o2, o3) \
	VMOVDQA64 i0, Z24 \
	VPERMT2Q i1, Z30, Z24 \
	VPERMT2Q i1, Z31, i0 \
	VMOVDQA64 i2, Z25 \
	VPERMT2Q i3, Z30, Z25 \
	VPERMT2Q i3, Z31, i2 \
	VSHUFI64X2 $0x44, Z25, Z24, o0 \
	VSHUFI64X2 $0xee, Z25, Z24, o1 \
	VSHUFI64X2 $0x44, i2, i0, o2 \
	VSHUFI64X2 $0xee, i2, i0, o3

// TRANSPOSE4 backwards: word rows w0..w3 back to eight elements in order
// in o0..o3. Clobbers Z24..Z27.
#define UNTRANSPOSE4(w0, w1, w2, w3, o0, o1, o2, o3) \
	VSHUFI64X2 $0x44, w1, w0, Z24 \
	VSHUFI64X2 $0xee, w1, w0, Z25 \
	VSHUFI64X2 $0x44, w3, w2, Z26 \
	VSHUFI64X2 $0xee, w3, w2, Z27 \
	VMOVDQA64 Z24, o0 \
	VPERMT2Q Z26, Z30, o0 \
	VMOVDQA64 Z24, o1 \
	VPERMT2Q Z26, Z31, o1 \
	VMOVDQA64 Z25, o2 \
	VPERMT2Q Z27, Z30, o2 \
	VMOVDQA64 Z25, o3 \
	VPERMT2Q Z27, Z31, o3

// Cuts four 64-bit words (w0..w3, one per register) into five 52-bit
// limbs and stores them to the Lanes at dst; Z0..Z4 are scratch.
#define CUT(w0, w1, w2, w3, dst) \
	VPANDQ M52, w0, Z0 \
	VPSRLQ $52, w0, Z1 \
	VPSLLQ $12, w1, TMP \
	VPORQ TMP, Z1, Z1 \
	VPANDQ M52, Z1, Z1 \
	VPSRLQ $40, w1, Z2 \
	VPSLLQ $24, w2, TMP \
	VPORQ TMP, Z2, Z2 \
	VPANDQ M52, Z2, Z2 \
	VPSRLQ $28, w2, Z3 \
	VPSLLQ $36, w3, TMP \
	VPORQ TMP, Z3, Z3 \
	VPANDQ M52, Z3, Z3 \
	VPSRLQ $16, w3, Z4 \
	VMOVDQU64 Z0, 0(dst) \
	VMOVDQU64 Z1, 64(dst) \
	VMOVDQU64 Z2, 128(dst) \
	VMOVDQU64 Z3, 192(dst) \
	VMOVDQU64 Z4, 256(dst)

// Loads eight elements at SI with four contiguous loads, transposes them
// into word rows Z5..Z8, cuts the four 64-bit words into five 52-bit
// limbs and stores them to the Lanes at DX.
#define PACK \
	VMOVDQU64 0(SI), Z0 \
	VMOVDQU64 64(SI), Z1 \
	VMOVDQU64 128(SI), Z2 \
	VMOVDQU64 192(SI), Z3 \
	TRANSPOSE4(Z0, Z1, Z2, Z3, Z5, Z6, Z7, Z8) \
	CUT(Z5, Z6, Z7, Z8, DX)

// func packLanes(z *Lanes, x *Element, n int)
//
// z[k] lane l = x[8k+l] for k < n.
TEXT ·packLanes(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JEQ  packDone
	VMOVDQU64 transLo<>(SB), Z30
	VMOVDQU64 transHi<>(SB), Z31
	VPBROADCASTQ ·laneConst+48(SB), M52

packLoop:
	PACK
	ADDQ $LaneBytes, DX
	ADDQ $256, SI
	DECQ CX
	JNE  packLoop
	VZEROUPPER

packDone:
	RET

// func packLanesPairs(even, odd *Lanes, x *Element, n int)
//
// even[k] lane l = x[2(8k+l)] and odd[k] lane l = x[2(8k+l)+1] for k < n.
// Pair l of a block (elements 2(8k+l) and 2(8k+l)+1, 64 bytes) is one
// contiguous load into Z_l, so word w of the pair's even element is qword
// w of Z_l and word w of its odd element qword 4+w. An 8×8 qword
// transpose — VPUNPCKLQDQ/VPUNPCKHQDQ within 128-bit blocks, then two
// rounds of VSHUFI64X2 across them — turns the eight pairs into eight
// registers T_w holding qword w of every pair: T0..T3 are the even row's
// words and T4..T7 the odd row's.
TEXT ·packLanesPairs(SB), NOSPLIT, $0-32
	MOVQ even+0(FP), DX
	MOVQ odd+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	TESTQ CX, CX
	JEQ  pairsDone
	VPBROADCASTQ ·laneConst+48(SB), M52

pairsLoop:
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VMOVDQU64 320(SI), Z5
	VMOVDQU64 384(SI), Z6
	VMOVDQU64 448(SI), Z7
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPUNPCKLQDQ Z3, Z2, Z10
	VPUNPCKHQDQ Z3, Z2, Z11
	VPUNPCKLQDQ Z5, Z4, Z12
	VPUNPCKHQDQ Z5, Z4, Z13
	VPUNPCKLQDQ Z7, Z6, Z14
	VPUNPCKHQDQ Z7, Z6, Z15
	VSHUFI64X2 $0x88, Z10, Z8, Z0
	VSHUFI64X2 $0xdd, Z10, Z8, Z1
	VSHUFI64X2 $0x88, Z11, Z9, Z2
	VSHUFI64X2 $0xdd, Z11, Z9, Z3
	VSHUFI64X2 $0x88, Z14, Z12, Z4
	VSHUFI64X2 $0xdd, Z14, Z12, Z5
	VSHUFI64X2 $0x88, Z15, Z13, Z6
	VSHUFI64X2 $0xdd, Z15, Z13, Z7
	VSHUFI64X2 $0x88, Z4, Z0, Z8
	VSHUFI64X2 $0xdd, Z4, Z0, Z12
	VSHUFI64X2 $0x88, Z5, Z1, Z10
	VSHUFI64X2 $0xdd, Z5, Z1, Z14
	VSHUFI64X2 $0x88, Z6, Z2, Z9
	VSHUFI64X2 $0xdd, Z6, Z2, Z13
	VSHUFI64X2 $0x88, Z7, Z3, Z11
	VSHUFI64X2 $0xdd, Z7, Z3, Z15
	CUT(Z8, Z9, Z10, Z11, DX)
	CUT(Z12, Z13, Z14, Z15, R8)
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, R8
	ADDQ $512, SI
	DECQ CX
	JNE  pairsLoop
	VZEROUPPER

pairsDone:
	RET

// func unpackLanes(x *Element, z *Lanes, n int)
//
// x[8k+l] = z[k] lane l for k < n: joins the five 52-bit limbs into four
// 64-bit words per lane, transposes the word rows back into eight
// elements and stores them with four contiguous stores.
TEXT ·unpackLanes(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DX
	MOVQ z+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JEQ  unpackDone
	VMOVDQU64 transLo<>(SB), Z30
	VMOVDQU64 transHi<>(SB), Z31

unpackLoop:
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VPSLLQ $52, Z1, TMP
	VPORQ TMP, Z0, Z5
	VPSRLQ $12, Z1, Z6
	VPSLLQ $40, Z2, TMP
	VPORQ TMP, Z6, Z6
	VPSRLQ $24, Z2, Z7
	VPSLLQ $28, Z3, TMP
	VPORQ TMP, Z7, Z7
	VPSRLQ $36, Z3, Z8
	VPSLLQ $16, Z4, TMP
	VPORQ TMP, Z8, Z8
	UNTRANSPOSE4(Z5, Z6, Z7, Z8, Z0, Z1, Z2, Z3)
	VMOVDQU64 Z0, 0(DX)
	VMOVDQU64 Z1, 64(DX)
	VMOVDQU64 Z2, 128(DX)
	VMOVDQU64 Z3, 192(DX)
	ADDQ $256, DX
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  unpackLoop
	VZEROUPPER

unpackDone:
	RET
