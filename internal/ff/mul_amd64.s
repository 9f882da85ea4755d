//go:build !purego

#include "textflag.h"

// Montgomery multiplication for the BLS12-381 scalar field on MULX/ADCX/ADOX
// (BMI2 + ADX): internal/fp's kernel cut to four limbs. The algorithm is the
// same fused "no-carry" CIOS as mulGeneric in element.go: four rounds, each
// adding x·y[i] into the running accumulator t and then folding one
// Montgomery reduction step m·q into it, so t never grows past four limbs
// plus the carry word A (the top limb of q is below 2^63). MULX leaves the
// flags alone, so every round runs two independent carry chains — ADCX on
// CF, ADOX on OF — instead of one serialised ADC chain.
//
// Register plan (12 live, so neither BP nor a stack frame is needed, and
// R14/R15 — g and the dynlink GOT scratch — are left alone):
//
//	DI, SI    x, y pointers (x limbs are MULX memory operands)
//	R8..R11   t0..t3, the accumulator
//	DX        MULX's implicit multiplier: y[i], then m
//	AX        low product word / zero for flushing the chains
//	BX        high word of m·q[0]
//	CX        A, the carry word out of the x·y[i] pass
//	R12, R13  the slice loops' z pointer and remaining count
//
// The final subtraction reuses AX, BX, CX, DX, so DI and SI survive one
// product and the slice loops only advance them. The modulus limbs are
// memory operands on ·q and −q⁻¹ mod 2^64 is ·qInvNeg, the variables init()
// derives from modulusHex and cross-checks against the qc0..qc3 / qInvNegC
// immediates the generic path uses.

#define t0 R8
#define t1 R9
#define t2 R10
#define t3 R11
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
	MULXQ 24(DI), AX, A  \
	ADOXQ AX, t3         \
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
	MOVQ  $0, AX        \
	ADCXQ AX, A         \
	ADOXQ AX, A         \

// t = (t + m·q) / 2^64 + A·2^192 with m = t0·(−q⁻¹) mod 2^64. The low word
// of t0 + m·q[0] is zero by construction; only its carry survives. Each t[j]
// is consumed by the ADCX into t[j-1] before the next MULX overwrites it
// with a high word, so the shift down costs no moves. IMULQ clobbers the
// flags, hence the XORQ after it.
#define REDUCE() \
	MOVQ  ·qInvNeg(SB), DX   \
	IMULQ t0, DX             \
	XORQ  AX, AX             \
	MULXQ ·q+0(SB), AX, BX   \
	ADCXQ t0, AX             \
	MOVQ  BX, t0             \
	ADCXQ t1, t0             \
	MULXQ ·q+8(SB), AX, t1   \
	ADOXQ AX, t0             \
	ADCXQ t2, t1             \
	MULXQ ·q+16(SB), AX, t2  \
	ADOXQ AX, t1             \
	ADCXQ t3, t2             \
	MULXQ ·q+24(SB), AX, t3  \
	ADOXQ AX, t2             \
	MOVQ  $0, AX             \
	ADCXQ AX, t3             \
	ADOXQ A, t3              \

// t = x·y·R⁻¹ mod q, fully reduced, from the x and y limbs at DI and SI.
// t < 2q after the rounds; the branch-free final subtraction computes
// s = t − q in AX, BX, CX, DX and keeps s unless it borrowed.
#define MUL_BODY() \
	MUL_ROUND0()            \
	REDUCE()                \
	MUL_ROUND(8)            \
	REDUCE()                \
	MUL_ROUND(16)           \
	REDUCE()                \
	MUL_ROUND(24)           \
	REDUCE()                \
	MOVQ    t0, AX          \
	MOVQ    t1, BX          \
	MOVQ    t2, CX          \
	MOVQ    t3, DX          \
	SUBQ    ·q+0(SB), AX    \
	SBBQ    ·q+8(SB), BX    \
	SBBQ    ·q+16(SB), CX   \
	SBBQ    ·q+24(SB), DX   \
	CMOVQCC AX, t0          \
	CMOVQCC BX, t1          \
	CMOVQCC CX, t2          \
	CMOVQCC DX, t3          \

#define STORE(zreg) \
	MOVQ t0, 0(zreg)  \
	MOVQ t1, 8(zreg)  \
	MOVQ t2, 16(zreg) \
	MOVQ t3, 24(zreg) \

// func mulADX(z, x, y *Element)
//
// z = x·y·R⁻¹ mod q, fully reduced. z is written only after the last read
// of x and y, so any aliasing among the three is fine.
TEXT ·mulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MUL_BODY()
	MOVQ z+0(FP), R12
	STORE(R12)
	RET

// func mulVec(z, x, y *Element, n int)
//
// z[i] = x[i]·y[i] for i < n. Element i of z is written only after element
// i of x and y is read, so z may alias x or y (index for index).
TEXT ·mulVec(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), R12
	MOVQ x+8(FP), DI
	MOVQ y+16(FP), SI
	MOVQ n+24(FP), R13
	TESTQ R13, R13
	JEQ  done

loop:
	MUL_BODY()
	STORE(R12)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R12
	DECQ R13
	JNE  loop

done:
	RET

// func scalarMulVec(z, x, c *Element, n int)
//
// z[i] = x[i]·c for i < n: the same body with SI parked on c. z may alias x
// (index for index).
TEXT ·scalarMulVec(SB), NOSPLIT, $0-32
	MOVQ z+0(FP), R12
	MOVQ x+8(FP), DI
	MOVQ c+16(FP), SI
	MOVQ n+24(FP), R13
	TESTQ R13, R13
	JEQ  done

loop:
	MUL_BODY()
	STORE(R12)
	ADDQ $32, DI
	ADDQ $32, R12
	DECQ R13
	JNE  loop

done:
	RET

// func cpuHasADX() bool
//
// CPUID leaf 7, sub-leaf 0: EBX bit 8 is BMI2 (MULX), bit 19 is ADX
// (ADCX/ADOX). Both are plain integer instructions, so no OS-support
// (XGETBV) check is needed.
TEXT ·cpuHasADX(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<8 | 1<<19), BX
	CMPL BX, $(1<<8 | 1<<19)
	SETEQ ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
