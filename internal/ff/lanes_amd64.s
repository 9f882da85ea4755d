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
// (or n groups of eight elements) inside one call, as mulVec does for
// Element, and keeps the constants in registers across the row.
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
// Register plan:
//
//	Z0..Z4     x limbs, then u − q in the final subtraction
//	Z5..Z10    the accumulator, a ring of six: round i's limb j is
//	           register 5 + (i+j) mod 6; the register cleared by a 52-bit
//	           step is the next round's top limb
//	Z11..Z15   q limbs (broadcast)
//	Z16, Z17   −q⁻¹ mod 2^52, the 52-bit mask (broadcast)
//	Z18        m
//	Z19        y[i]
//	Z20        scratch
//	Z21        the 48-bit mask (broadcast)
//
// Constants come from ·laneConst (lanes.go): q[0..4], −q⁻¹, masks.

#define PINV Z16
#define M52 Z17
#define MM Z18
#define B Z19
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

// t_j += lo(x_j·y[i]) and t_{j+1} += hi(x_j·y[i]) for y[i] at off(SI).
#define MULADD(off, t0, t1, t2, t3, t4, t5) \
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
	VPMADD52HUQ B, Z4, t5

// t += m·q for the m in MM.
#define ADDMQ(t0, t1, t2, t3, t4, t5) \
	VPMADD52LUQ Z11, MM, t0 \
	VPMADD52HUQ Z11, MM, t1 \
	VPMADD52LUQ Z12, MM, t1 \
	VPMADD52HUQ Z12, MM, t2 \
	VPMADD52LUQ Z13, MM, t2 \
	VPMADD52HUQ Z13, MM, t3 \
	VPMADD52LUQ Z14, MM, t3 \
	VPMADD52HUQ Z14, MM, t4 \
	VPMADD52LUQ Z15, MM, t4 \
	VPMADD52HUQ Z15, MM, t5

// The 52-bit step: m = t0·(−q⁻¹) mod 2^52, t += m·q, so t0 ≡ 0 mod 2^52;
// t0's carry moves to t1 and t0 is cleared.
#define REDUCE52(t0, t1, t2, t3, t4, t5) \
	VPXORQ      MM, MM, MM \
	VPMADD52LUQ PINV, t0, MM \
	ADDMQ(t0, t1, t2, t3, t4, t5) \
	VPSRLQ      $52, t0, TMP \
	VPADDQ      TMP, t1, t1 \
	VPXORQ      t0, t0, t0

// The 48-bit step: m′ = t0·(−q⁻¹) mod 2^48, t += m′·q, then t /= 2^48
// limb by limb into t0..t4 (t5 lands in t4 whole, shifted up by 4).
#define SHIFT48(a, b) \
	VPSRLQ $48, a, a     \
	VPSLLQ $16, b, TMP   \
	VPSRLQ $12, TMP, TMP \
	VPADDQ TMP, a, a

#define REDUCE48(t0, t1, t2, t3, t4, t5) \
	VPXORQ      MM, MM, MM \
	VPMADD52LUQ PINV, t0, MM \
	VPANDQ      M48, MM, MM \
	ADDMQ(t0, t1, t2, t3, t4, t5) \
	SHIFT48(t0, t1) \
	SHIFT48(t1, t2) \
	SHIFT48(t2, t3) \
	SHIFT48(t3, t4) \
	VPSRLQ      $48, t4, t4 \
	VPSLLQ      $4, t5, TMP \
	VPADDQ      TMP, t4, t4

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
// back in the lanes where d < 0 (K1), carry again, and store to z at DX.
#define SUBTAIL \
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
	VMOVDQU64 Z0, 0(DX) \
	VMOVDQU64 Z1, 64(DX) \
	VMOVDQU64 Z2, 128(DX) \
	VMOVDQU64 Z3, 192(DX) \
	VMOVDQU64 Z4, 256(DX)

// func mulLanes(z, x, y *Lanes, n, yStep int)
//
// z[k] = x[k]·y·2^−256 mod q lane-wise for k < n, where y advances yStep
// bytes per k: LaneBytes for a row of multipliers, 0 for one multiplier.
// z[k] is written after the last read of x[k] and its y, so z may alias x
// or y (index for index).
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
	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VMOVDQU64 256(DI), Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	MULADD(0, Z5, Z6, Z7, Z8, Z9, Z10)
	REDUCE52(Z5, Z6, Z7, Z8, Z9, Z10)
	MULADD(64, Z6, Z7, Z8, Z9, Z10, Z5)
	REDUCE52(Z6, Z7, Z8, Z9, Z10, Z5)
	MULADD(128, Z7, Z8, Z9, Z10, Z5, Z6)
	REDUCE52(Z7, Z8, Z9, Z10, Z5, Z6)
	MULADD(192, Z8, Z9, Z10, Z5, Z6, Z7)
	REDUCE52(Z8, Z9, Z10, Z5, Z6, Z7)
	MULADD(256, Z9, Z10, Z5, Z6, Z7, Z8)
	REDUCE48(Z9, Z10, Z5, Z6, Z7, Z8)

	// u is below 1.46q in unnormalized limbs: subtract q, and SUBTAIL
	// adds it back where u < q.
	VPSUBQ Z11, Z9, Z0
	VPSUBQ Z12, Z10, Z1
	VPSUBQ Z13, Z5, Z2
	VPSUBQ Z14, Z6, Z3
	VPSUBQ Z15, Z7, Z4
	SUBTAIL
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, DI
	ADDQ R8, SI
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
	SUBTAIL
	ADDQ $LaneBytes, DX
	ADDQ $LaneBytes, DI
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  addLoop
	VZEROUPPER

addDone:
	RET

// Element offsets within eight consecutive Elements: the gather/scatter
// index vector. Scale 2 reads every other Element instead.
DATA laneIdx<>+0(SB)/8, $0
DATA laneIdx<>+8(SB)/8, $32
DATA laneIdx<>+16(SB)/8, $64
DATA laneIdx<>+24(SB)/8, $96
DATA laneIdx<>+32(SB)/8, $128
DATA laneIdx<>+40(SB)/8, $160
DATA laneIdx<>+48(SB)/8, $192
DATA laneIdx<>+56(SB)/8, $224
GLOBL laneIdx<>(SB), RODATA|NOPTR, $64

// Gathers word k of eight elements at SI (index vector Z31, the given
// scale) into Z0..Z3, cuts the four 64-bit words into five 52-bit limbs
// and stores them to the Lanes at DX.
#define PACK(scale) \
	KXNORW K1, K1, K1 \
	VPGATHERQQ 0(SI)(Z31*scale), K1, Z0 \
	KXNORW K1, K1, K1 \
	VPGATHERQQ 8(SI)(Z31*scale), K1, Z1 \
	KXNORW K1, K1, K1 \
	VPGATHERQQ 16(SI)(Z31*scale), K1, Z2 \
	KXNORW K1, K1, K1 \
	VPGATHERQQ 24(SI)(Z31*scale), K1, Z3 \
	VPANDQ M52, Z0, Z5 \
	VPSRLQ $52, Z0, Z6 \
	VPSLLQ $12, Z1, TMP \
	VPORQ TMP, Z6, Z6 \
	VPANDQ M52, Z6, Z6 \
	VPSRLQ $40, Z1, Z7 \
	VPSLLQ $24, Z2, TMP \
	VPORQ TMP, Z7, Z7 \
	VPANDQ M52, Z7, Z7 \
	VPSRLQ $28, Z2, Z8 \
	VPSLLQ $36, Z3, TMP \
	VPORQ TMP, Z8, Z8 \
	VPANDQ M52, Z8, Z8 \
	VPSRLQ $16, Z3, Z9 \
	VMOVDQU64 Z5, 0(DX) \
	VMOVDQU64 Z6, 64(DX) \
	VMOVDQU64 Z7, 128(DX) \
	VMOVDQU64 Z8, 192(DX) \
	VMOVDQU64 Z9, 256(DX)

// func packLanes(z *Lanes, x *Element, n int)
//
// z[k] lane l = x[8k+l] for k < n.
TEXT ·packLanes(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JEQ  packDone
	VMOVDQU64 laneIdx<>(SB), Z31
	VPBROADCASTQ ·laneConst+48(SB), M52

packLoop:
	PACK(1)
	ADDQ $LaneBytes, DX
	ADDQ $256, SI
	DECQ CX
	JNE  packLoop
	VZEROUPPER

packDone:
	RET

// func packLanesEven(z *Lanes, x *Element, n int)
//
// z[k] lane l = x[2(8k+l)] for k < n: the even entries of 16n elements.
TEXT ·packLanesEven(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JEQ  evenDone
	VMOVDQU64 laneIdx<>(SB), Z31
	VPBROADCASTQ ·laneConst+48(SB), M52

evenLoop:
	PACK(2)
	ADDQ $LaneBytes, DX
	ADDQ $512, SI
	DECQ CX
	JNE  evenLoop
	VZEROUPPER

evenDone:
	RET

// func unpackLanes(x *Element, z *Lanes, n int)
//
// x[8k+l] = z[k] lane l for k < n: joins the five 52-bit limbs into four
// 64-bit words per lane, then scatters word w of each lane to its element.
TEXT ·unpackLanes(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DX
	MOVQ z+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JEQ  unpackDone
	VMOVDQU64 laneIdx<>(SB), Z31

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
	KXNORW K1, K1, K1
	VPSCATTERQQ Z5, K1, 0(DX)(Z31*1)
	KXNORW K1, K1, K1
	VPSCATTERQQ Z6, K1, 8(DX)(Z31*1)
	KXNORW K1, K1, K1
	VPSCATTERQQ Z7, K1, 16(DX)(Z31*1)
	KXNORW K1, K1, K1
	VPSCATTERQQ Z8, K1, 24(DX)(Z31*1)
	ADDQ $256, DX
	ADDQ $LaneBytes, SI
	DECQ CX
	JNE  unpackLoop
	VZEROUPPER

unpackDone:
	RET
