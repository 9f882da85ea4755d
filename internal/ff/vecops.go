package ff

import (
	"math/big"
	"math/bits"

	"zkphire/internal/cpu"
)

// This file implements the slice kernels of the scalar-field hot loops:
// MulVec (the assembly multiply run over a whole slice), FoldVec (on the
// Lanes rows), and the lazy-reduction kernels SumVec and InnerProductVec,
// plus the LazyAcc accumulator they are built on and the fused
// multiply-add behind Element.MulAdd. The idea of the lazy ones is always
// the same — keep an accumulator UNREDUCED across a whole chunk and pay
// the Montgomery reduction (and its conditional subtractions) once at the
// chunk boundary instead of once per element:
//
//   - SumVec adds raw 4-limb Montgomery representations into a 320-bit
//     accumulator (each addend is < q < 2^255, so ~2^65 adds fit before the
//     fifth limb could overflow — far beyond any table size this library
//     handles, see DESIGN.md §5).
//   - InnerProductVec / LazyAcc accumulate full 512-bit schoolbook products
//     x̃·ỹ into a 576-bit accumulator: the per-element Montgomery reduction
//     half of Mul (16 of its 32 word products) disappears entirely. Each
//     product is < q² < 2^510, so ~2^66 products fit.
//   - MulAdd fuses a multiply and an add into one reduction:
//     z = x·y + a is computed as a 512-bit value and reduced once, instead
//     of Mul's reduction followed by Add's conditional subtraction.
//
// The unreduced accumulators are plain integers, so the final reduced value
// is exactly Σ mod q — bit-identical to the naive per-element chain — and
// every kernel below preserves the proof-byte determinism the engine
// guarantees.
//
// The boundary reduction uses single-limb Montgomery shrink steps: each step
// maps A → (A + m·q)/2^64 with m = −A·q⁻¹ mod 2^64, cutting one limb and
// multiplying the residue by 2^{-64}. The 2^{-64·k} skew is repaired with
// one Montgomery multiplication by 2^384 mod q (shrinkFix below), chosen so
// that both the 2-step (sums) and 6-step (products) paths land back on the
// representation they started from.

// Overflow windows of the lazy-reduction accumulators (DESIGN.md §5).
// Each addend of SumVec is < q < 2^255, so the 320-bit sum accumulator
// holds ~2^65 raw adds before its fifth limb could overflow; each
// product fed to LazyAcc/InnerProductVec is < q² < 2^510, so the
// 576-bit product accumulator holds ~2^66 products.
const (
	// SumWindowLog2 bounds raw 4-limb adds per SumVec call.
	SumWindowLog2 = 65
	// ProductWindowLog2 bounds 512-bit products per LazyAcc before Reduce.
	ProductWindowLog2 = 66
)

// Every windowed call's count is a Go slice length or an int loop count,
// so it is below 2^63 and no caller can leave the windows above. These
// conversions go negative, and the package stops compiling, if a window
// ever shrinks under that bound.
const (
	_ = uint(SumWindowLog2 - 63)
	_ = uint(ProductWindowLog2 - 63)
)

// shrinkFix = 2^384 mod q as plain limbs, derived at init. For a sum
// accumulator shrunk by 2 steps, Mul(r, shrinkFix) = r·2^384·2^{-256} =
// r·2^128 undoes the 2^{-128}; for a product accumulator shrunk by 6 steps
// it turns A·2^{-384} into A·2^{-256} = REDC(A), the Montgomery form of the
// accumulated sum of products.
var shrinkFix Element

func init() {
	// Files of a package init in name order, so qBig (element.go) is ready.
	v := new(big.Int).Lsh(big.NewInt(1), 384)
	v.Mod(v, qBig)
	bigToLimbs(v, (*[Limbs]uint64)(&shrinkFix))
}

// LazyAcc is an unreduced 576-bit accumulator of full-width products of
// Montgomery-form elements. The zero value is an empty accumulator. Up to
// 2^66 products may be accumulated before Reduce; callers chunk far below
// that. It exists so that kernels with a non-slice access pattern (the PCS
// table combination walks one entry of many tables) can still batch their
// reductions.
type LazyAcc [9]uint64

// MulAcc accumulates the raw 512-bit product x·y (no reduction).
func (a *LazyAcc) MulAcc(x, y *Element) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var p0, p1, p2, p3, p4, p5, p6, p7, c uint64

	v := y[0]
	c, p0 = bits.Mul64(x0, v)
	c, p1 = madd(x1, v, c, 0)
	c, p2 = madd(x2, v, c, 0)
	c, p3 = madd(x3, v, c, 0)
	p4 = c
	v = y[1]
	c, p1 = madd(x0, v, p1, 0)
	c, p2 = madd(x1, v, p2, c)
	c, p3 = madd(x2, v, p3, c)
	c, p4 = madd(x3, v, p4, c)
	p5 = c
	v = y[2]
	c, p2 = madd(x0, v, p2, 0)
	c, p3 = madd(x1, v, p3, c)
	c, p4 = madd(x2, v, p4, c)
	c, p5 = madd(x3, v, p5, c)
	p6 = c
	v = y[3]
	c, p3 = madd(x0, v, p3, 0)
	c, p4 = madd(x1, v, p4, c)
	c, p5 = madd(x2, v, p5, c)
	c, p6 = madd(x3, v, p6, c)
	p7 = c

	a[0], c = bits.Add64(a[0], p0, 0)
	a[1], c = bits.Add64(a[1], p1, c)
	a[2], c = bits.Add64(a[2], p2, c)
	a[3], c = bits.Add64(a[3], p3, c)
	a[4], c = bits.Add64(a[4], p4, c)
	a[5], c = bits.Add64(a[5], p5, c)
	a[6], c = bits.Add64(a[6], p6, c)
	a[7], c = bits.Add64(a[7], p7, c)
	a[8] += c
}

// shrink performs one single-limb Montgomery step: a ← (a + m·q)/2^64.
func (a *LazyAcc) shrink() {
	m := a[0] * qInvNegC
	c := madd0(m, qc0, a[0])
	c, a[0] = madd(m, qc1, a[1], c)
	c, a[1] = madd(m, qc2, a[2], c)
	c, a[2] = madd(m, qc3, a[3], c)
	var cr uint64
	a[3], cr = bits.Add64(a[4], c, 0)
	a[4], cr = bits.Add64(a[5], 0, cr)
	a[5], cr = bits.Add64(a[6], 0, cr)
	a[6], cr = bits.Add64(a[7], 0, cr)
	a[7] = a[8] + cr
	a[8] = 0
}

// Reduce returns the accumulated Σ xᵢ·yᵢ as a reduced Montgomery element and
// leaves the accumulator in an unspecified state. Six shrink steps bring the
// 576-bit value down to < 2q at a 2^{-384} skew; the shrinkFix multiply
// restores REDC semantics.
func (a *LazyAcc) Reduce() Element {
	a.shrink()
	a.shrink()
	a.shrink()
	a.shrink()
	a.shrink()
	a.shrink()
	e := Element{a[0], a[1], a[2], a[3]}
	if !smallerThanModulus(&e) {
		var b uint64
		e[0], b = bits.Sub64(e[0], qc0, 0)
		e[1], b = bits.Sub64(e[1], qc1, b)
		e[2], b = bits.Sub64(e[2], qc2, b)
		e[3], _ = bits.Sub64(e[3], qc3, b)
	}
	return *e.Mul(&e, &shrinkFix)
}

// SumVec returns the sum of all entries with one reduction per call: the
// 4-limb Montgomery representations are added raw into a 5-limb accumulator
// (no per-element conditional subtraction), which two shrink steps and a
// shrinkFix multiply reduce at the boundary.
func SumVec(v []Element) Element {
	if len(v) == 0 {
		return Element{}
	}
	var a LazyAcc
	for i := range v {
		var c uint64
		a[0], c = bits.Add64(a[0], v[i][0], 0)
		a[1], c = bits.Add64(a[1], v[i][1], c)
		a[2], c = bits.Add64(a[2], v[i][2], c)
		a[3], c = bits.Add64(a[3], v[i][3], c)
		a[4] += c
	}
	a.shrink()
	a.shrink()
	e := Element{a[0], a[1], a[2], a[3]}
	if !smallerThanModulus(&e) {
		var b uint64
		e[0], b = bits.Sub64(e[0], qc0, 0)
		e[1], b = bits.Sub64(e[1], qc1, b)
		e[2], b = bits.Sub64(e[2], qc2, b)
		e[3], _ = bits.Sub64(e[3], qc3, b)
	}
	return *e.Mul(&e, &shrinkFix)
}

// InnerProductVec returns Σ a[i]·b[i] with one reduction per call instead of
// one per element. It panics if lengths differ.
func InnerProductVec(a, b []Element) Element {
	if len(a) != len(b) {
		panic("ff: inner product length mismatch")
	}
	if len(a) == 0 {
		return Element{}
	}
	var acc LazyAcc
	for i := range a {
		acc.MulAcc(&a[i], &b[i])
	}
	return acc.Reduce()
}

// mulAddRed returns x·y + add fully reduced, with the multiply's Montgomery
// reduction and the add fused into one pass: the addend is injected into the
// high half of the 512-bit product (a·2^256 survives REDC's division by R as
// +a) before the four reduction rounds. The pre-subtraction result is
// < q²/R + 2q < 2.46q, which exceeds 2^256 — the deferred-carry fold can
// therefore carry out of the top word, and that bit is absorbed by an
// unconditional q-subtraction before the final conditional one.
func mulAddRed(x, y, add *Element) Element {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var w [8]uint64
	var c uint64

	v := y[0]
	c, w[0] = bits.Mul64(x0, v)
	c, w[1] = madd(x1, v, c, 0)
	c, w[2] = madd(x2, v, c, 0)
	c, w[3] = madd(x3, v, c, 0)
	w[4] = c
	v = y[1]
	c, w[1] = madd(x0, v, w[1], 0)
	c, w[2] = madd(x1, v, w[2], c)
	c, w[3] = madd(x2, v, w[3], c)
	c, w[4] = madd(x3, v, w[4], c)
	w[5] = c
	v = y[2]
	c, w[2] = madd(x0, v, w[2], 0)
	c, w[3] = madd(x1, v, w[3], c)
	c, w[4] = madd(x2, v, w[4], c)
	c, w[5] = madd(x3, v, w[5], c)
	w[6] = c
	v = y[3]
	c, w[3] = madd(x0, v, w[3], 0)
	c, w[4] = madd(x1, v, w[4], c)
	c, w[5] = madd(x2, v, w[5], c)
	c, w[6] = madd(x3, v, w[6], c)
	w[7] = c

	// Inject the addend at weight 2^256: x·y < q² keeps the high half below
	// q²/2^256 < 0.21·2^256 and add < q < 0.46·2^256, so no carry escapes.
	w[4], c = bits.Add64(w[4], add[0], 0)
	w[5], c = bits.Add64(w[5], add[1], c)
	w[6], c = bits.Add64(w[6], add[2], c)
	w[7], _ = bits.Add64(w[7], add[3], c)

	var carries [4]uint64
	for i := 0; i < 4; i++ {
		m := w[i] * qInvNegC
		var cr uint64
		cr = madd0(m, qc0, w[i])
		cr, w[i+1] = madd(m, qc1, w[i+1], cr)
		cr, w[i+2] = madd(m, qc2, w[i+2], cr)
		cr, w[i+3] = madd(m, qc3, w[i+3], cr)
		carries[i] = cr
	}
	var t0, t1, t2, t3, top uint64
	t0, c = bits.Add64(w[4], carries[0], 0)
	t1, c = bits.Add64(w[5], carries[1], c)
	t2, c = bits.Add64(w[6], carries[2], c)
	t3, top = bits.Add64(w[7], carries[3], c)

	if top != 0 {
		// Value is in [2^256, 2.46q): one q-subtraction clears the 257th bit.
		var b uint64
		t0, b = bits.Sub64(t0, qc0, 0)
		t1, b = bits.Sub64(t1, qc1, b)
		t2, b = bits.Sub64(t2, qc2, b)
		t3, _ = bits.Sub64(t3, qc3, b)
	}
	// Without a top-bit carry the value can still reach 2^256 < 2.21q, so up
	// to two subtractions remain.
	e := Element{t0, t1, t2, t3}
	for !smallerThanModulus(&e) {
		var b uint64
		e[0], b = bits.Sub64(e[0], qc0, 0)
		e[1], b = bits.Sub64(e[1], qc1, b)
		e[2], b = bits.Sub64(e[2], qc2, b)
		e[3], _ = bits.Sub64(e[3], qc3, b)
	}
	return e
}

// MulAdd sets z = x·y + a (fused multiply-add, one reduction) and returns z.
func (z *Element) MulAdd(x, y, a *Element) *Element {
	*z = mulAddRed(x, y, a)
	return z
}

// FoldVec writes the r-fold of src (length 2m) into dst (length m):
//
//	dst[j] = src[2j] + r·(src[2j+1] − src[2j])
//
// on the Lanes rows, up to foldGroups·8 pairs per pass. dst may alias the
// first half of src (the in-place MLE fold): a pass reads all its pairs
// before it writes its entries, which lie below its first pair or inside
// its own pairs.
func FoldVec(dst, src []Element, r *Element) {
	if len(src) != 2*len(dst) {
		panic("ff: fold length mismatch")
	}
	rl := NewLaneConst(r)
	var a0, a1 [foldGroups]Lanes
	for j := 0; j < len(dst); j += foldGroups * LaneCount {
		m := min(foldGroups*LaneCount, len(dst)-j)
		x0, x1 := a0[:laneGroups(m)], a1[:laneGroups(m)]
		PackLanesPairs(x0, x1, src[2*j:2*(j+m)])
		SubLanes(x1, x1, x0)
		ScalarMulLanes(x1, x1, rl.Row())
		AddLanes(x1, x1, x0)
		UnpackLanes(dst[j:j+m], x1)
	}
}

// foldGroups is how many Lanes values FoldVec packs per pass.
const foldGroups = 8

// MulVec sets z[i] = x[i]·y[i] for every i. On amd64 with BMI2+ADX
// (cpu.ADX) the whole loop runs inside the assembly kernel (mulVec in
// mul_amd64.s), one call per slice instead of one per element; elsewhere it
// is a mulGeneric loop. z may alias x or y (index for index). It panics if lengths differ.
func MulVec(z, x, y []Element) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: mul vec length mismatch")
	}
	if len(z) == 0 {
		return
	}
	if cpu.ADX {
		mulVec(&z[0], &x[0], &y[0], len(z))
		return
	}
	for i := range z {
		z[i].mulGeneric(&x[i], &y[i])
	}
}

// BatchInvertScratch is BatchInvert with a caller-provided prefix buffer
// (len(scratch) >= len(a)), so hot loops — the permutation argument inverts
// one chunk per worker — can run batched inversion without allocating.
func BatchInvertScratch(a, scratch []Element) {
	n := len(a)
	if n == 0 {
		return
	}
	if len(scratch) < n {
		panic("ff: batch invert scratch too small")
	}
	prefix := scratch[:n]
	acc := one
	for i := 0; i < n; i++ {
		prefix[i] = acc
		if !a[i].IsZero() {
			acc.Mul(&acc, &a[i])
		}
	}
	var inv Element
	inv.Inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if a[i].IsZero() {
			continue
		}
		var ai Element
		ai.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &a[i])
		a[i] = ai
	}
}
