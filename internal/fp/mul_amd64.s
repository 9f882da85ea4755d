//go:build !purego

#include "textflag.h"

// Montgomery multiplication for the BLS12-381 base field on MULX/ADCX/ADOX
// (BMI2 + ADX). The algorithm is the same fused "no-carry" CIOS as
// mulGeneric in element.go: six rounds, each adding x·y[i] into the running
// accumulator t and then folding one Montgomery reduction step m·p into it,
// so t never grows past six limbs plus the carry word A (the top limb of p
// is below 2^62). MULX leaves the flags alone, which lets every round run
// two independent carry chains at once — ADCX on CF, ADOX on OF — instead
// of serialising the 12 additions behind one carry flag.
//
// Register plan (12 live, so neither BP nor a stack frame is needed, and
// R14/R15 — g and the dynlink GOT scratch — are left alone):
//
//	DI, SI    x, y pointers (x limbs are MULX memory operands)
//	R8..R13   t0..t5, the accumulator
//	DX        MULX's implicit multiplier: y[i], then m
//	AX        low product word / zero for flushing the chains
//	BX        high word of m·p[0]
//	CX        A, the carry word out of the x·y[i] pass
//
// The modulus limbs are memory operands on ·p and −p⁻¹ mod 2^64 is ·pInvNeg,
// the variables init() derives from modulusHex and cross-checks against the
// pc0..pc5 / pInvNegC immediates the generic path uses.

#define t0 R8
#define t1 R9
#define t2 R10
#define t3 R11
#define t4 R12
#define t5 R13
#define A  CX

// (A, t) = x·y[0]. XORQ clears CF and OF.
#define MUL_ROUND0() \
	XORQ  AX, AX         \
	MOVQ  0(SI), DX      \
	MULXQ 0(DI), t0, t1  \
	MULXQ 8(DI), AX, t2  \
	ADOXQ AX, t1         \
	MULXQ 16(DI), AX, t3 \
	ADOXQ AX, t2         \
	MULXQ 24(DI), AX, t4 \
	ADOXQ AX, t3         \
	MULXQ 32(DI), AX, t5 \
	ADOXQ AX, t4         \
	MULXQ 40(DI), AX, A  \
	ADOXQ AX, t5         \
	MOVQ  $0, AX         \
	ADOXQ AX, A          \

// (A, t) = t + x·y[i]: the previous limb's high word rides the CF chain,
// this limb's low word the OF chain.
#define MUL_ROUND(yoff) \
	XORQ  AX, AX        \
	MOVQ  yoff(SI), DX  \
	MULXQ 0(DI), AX, A  \
	ADOXQ AX, t0        \
	ADCXQ A, t1         \
	MULXQ 8(DI), AX, A  \
	ADOXQ AX, t1        \
	ADCXQ A, t2         \
	MULXQ 16(DI), AX, A \
	ADOXQ AX, t2        \
	ADCXQ A, t3         \
	MULXQ 24(DI), AX, A \
	ADOXQ AX, t3        \
	ADCXQ A, t4         \
	MULXQ 32(DI), AX, A \
	ADOXQ AX, t4        \
	ADCXQ A, t5         \
	MULXQ 40(DI), AX, A \
	ADOXQ AX, t5        \
	MOVQ  $0, AX        \
	ADCXQ AX, A         \
	ADOXQ AX, A         \

// t = (t + m·p) / 2^64 + A·2^320 with m = t0·(−p⁻¹) mod 2^64. The low word
// of t0 + m·p[0] is zero by construction; only its carry survives. Each t[j]
// is consumed by the ADCX into t[j-1] before the next MULX overwrites it
// with a high word, so the shift down costs no moves. IMULQ clobbers the
// flags, hence the XORQ after it.
#define REDUCE() \
	MOVQ  ·pInvNeg(SB), DX   \
	IMULQ t0, DX             \
	XORQ  AX, AX             \
	MULXQ ·p+0(SB), AX, BX   \
	ADCXQ t0, AX             \
	MOVQ  BX, t0             \
	ADCXQ t1, t0             \
	MULXQ ·p+8(SB), AX, t1   \
	ADOXQ AX, t0             \
	ADCXQ t2, t1             \
	MULXQ ·p+16(SB), AX, t2  \
	ADOXQ AX, t1             \
	ADCXQ t3, t2             \
	MULXQ ·p+24(SB), AX, t3  \
	ADOXQ AX, t2             \
	ADCXQ t4, t3             \
	MULXQ ·p+32(SB), AX, t4  \
	ADOXQ AX, t3             \
	ADCXQ t5, t4             \
	MULXQ ·p+40(SB), AX, t5  \
	ADOXQ AX, t4             \
	MOVQ  $0, AX             \
	ADCXQ AX, t5             \
	ADOXQ A, t5              \

// func mulADX(z, x, y *Element)
//
// z = x·y·R⁻¹ mod p, fully reduced. z is written only after the last read
// of x and y, so any aliasing among the three is fine.
TEXT ·mulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI

	MUL_ROUND0()
	REDUCE()
	MUL_ROUND(8)
	REDUCE()
	MUL_ROUND(16)
	REDUCE()
	MUL_ROUND(24)
	REDUCE()
	MUL_ROUND(32)
	REDUCE()
	MUL_ROUND(40)
	REDUCE()

	// t < 2p here. Branch-free final subtraction: s = t − p in the six
	// registers the rounds no longer need, keep s unless it borrowed.
	MOVQ    t0, DI
	MOVQ    t1, SI
	MOVQ    t2, DX
	MOVQ    t3, AX
	MOVQ    t4, BX
	MOVQ    t5, CX
	SUBQ    ·p+0(SB), DI
	SBBQ    ·p+8(SB), SI
	SBBQ    ·p+16(SB), DX
	SBBQ    ·p+24(SB), AX
	SBBQ    ·p+32(SB), BX
	SBBQ    ·p+40(SB), CX
	CMOVQCC DI, t0
	CMOVQCC SI, t1
	CMOVQCC DX, t2
	CMOVQCC AX, t3
	CMOVQCC BX, t4
	CMOVQCC CX, t5

	MOVQ z+0(FP), AX
	MOVQ t0, 0(AX)
	MOVQ t1, 8(AX)
	MOVQ t2, 16(AX)
	MOVQ t3, 24(AX)
	MOVQ t4, 32(AX)
	MOVQ t5, 40(AX)
	RET
