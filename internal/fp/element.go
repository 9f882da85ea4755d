// Package fp implements arithmetic over the BLS12-381 base field Fp, the
// 381-bit prime field with modulus
//
//	p = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624
//	    1eabfffeb153ffffb9feffffffffaaab
//
// Elements are stored in Montgomery form as six little-endian 64-bit limbs.
// Curve point coordinates (internal/curve) live in this field; all MLE data
// lives in the 255-bit scalar field (internal/ff).
package fp

import (
	"fmt"
	"math/big"
	"math/bits"

	"zkphire/internal/cpu"
)

// Limbs is the number of 64-bit limbs in an Element.
const Limbs = 6

// Bytes is the byte size of a canonical serialized element.
const Bytes = 48

// Element is a base-field element in Montgomery form (a*R mod p, R = 2^384).
type Element [Limbs]uint64

const modulusHex = "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"

// Modulus limbs and the Montgomery constant as untyped constants so the
// unrolled mulGeneric below can fold them into immediates instead of burning
// six registers; init cross-checks them against modulusHex (the single
// trusted literal) and panics on mismatch. The amd64 kernel reads the same
// values from the checked variables p and pInvNeg.
const (
	pc0 = 0xb9feffffffffaaab
	pc1 = 0x1eabfffeb153ffff
	pc2 = 0x6730d2a0f6b0f624
	pc3 = 0x64774b84f38512bf
	pc4 = 0x4b1ba7b6434bacd7
	pc5 = 0x1a0111ea397fe69a
	// pInvNegC = -p^{-1} mod 2^64.
	pInvNegC = 0x89f3fffcfffcfffd
)

var (
	p       Element
	pBig    *big.Int
	pInvNeg uint64
	rSquare Element
	one     Element
	zero    Element
)

func init() {
	pBig, _ = new(big.Int).SetString(modulusHex, 16)
	bigToLimbs(pBig, (*[Limbs]uint64)(&p))

	inv := uint64(1)
	for i := 0; i < 6; i++ {
		inv *= 2 - p[0]*inv
	}
	pInvNeg = -inv

	if p != (Element{pc0, pc1, pc2, pc3, pc4, pc5}) || pInvNeg != pInvNegC {
		panic("fp: unrolled-Mul constants disagree with the modulus")
	}

	r := new(big.Int).Lsh(big.NewInt(1), 384)
	r.Mod(r, pBig)
	bigToLimbs(r, (*[Limbs]uint64)(&one))

	r2 := new(big.Int).Lsh(big.NewInt(1), 768)
	r2.Mod(r2, pBig)
	bigToLimbs(r2, (*[Limbs]uint64)(&rSquare))
}

// Modulus returns a copy of the base-field modulus.
func Modulus() *big.Int { return new(big.Int).Set(pBig) }

// thirdRootOne is a primitive cube root of unity in Fp, derived at init.
var thirdRootOne Element

func init() {
	// p ≡ 1 (mod 3) for BLS12-381, so x^((p−1)/3) is a cube root of unity;
	// scan small bases until the root is nontrivial.
	exp := new(big.Int).Sub(pBig, big.NewInt(1))
	if new(big.Int).Mod(exp, big.NewInt(3)).Sign() != 0 {
		panic("fp: p−1 not divisible by 3; no cube root of unity")
	}
	exp.Div(exp, big.NewInt(3))
	for g := int64(2); ; g++ {
		w := new(big.Int).Exp(big.NewInt(g), exp, pBig)
		if w.Cmp(big.NewInt(1)) != 0 {
			thirdRootOne.SetBigInt(w)
			break
		}
	}
	var check Element
	check.Square(&thirdRootOne)
	check.Mul(&check, &thirdRootOne)
	if !check.IsOne() || thirdRootOne.IsOne() {
		panic("fp: derived cube root of unity is invalid")
	}
}

// ThirdRootOne returns β, a primitive cube root of unity in Fp (β³ = 1,
// β ≠ 1). The GLV endomorphism φ(x, y) = (βx, y) on BLS12-381 G1 is built
// from it — the curve layer picks β or β² so that φ matches the scalar
// eigenvalue λ.
func ThirdRootOne() Element { return thirdRootOne }

func bigToLimbs(v *big.Int, out *[Limbs]uint64) {
	var tmp big.Int
	tmp.Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := 0; i < Limbs; i++ {
		var lo big.Int
		lo.And(&tmp, mask)
		out[i] = lo.Uint64()
		tmp.Rsh(&tmp, 64)
	}
}

func limbsToBig(e *Element, out *big.Int) {
	var buf [Bytes]byte
	for i := 0; i < Limbs; i++ {
		for j := 0; j < 8; j++ {
			buf[Bytes-1-(8*i+j)] = byte(e[i] >> (8 * j))
		}
	}
	out.SetBytes(buf[:])
}

// One returns the multiplicative identity.
func One() Element { return one }

// Zero returns the additive identity.
func Zero() Element { return zero }

// SetZero sets z to 0 and returns z.
func (z *Element) SetZero() *Element { *z = zero; return z }

// SetOne sets z to 1 and returns z.
func (z *Element) SetOne() *Element { *z = one; return z }

// SetUint64 sets z to v and returns z.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v}
	return z.Mul(z, &rSquare)
}

// SetBigInt sets z to v mod p and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element {
	var t big.Int
	t.Mod(v, pBig)
	var plain Element
	bigToLimbs(&t, (*[Limbs]uint64)(&plain))
	return z.Mul(&plain, &rSquare)
}

// SetHex sets z from a hex string (no 0x prefix required) and returns z.
func (z *Element) SetHex(s string) *Element {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic(fmt.Sprintf("fp: bad hex %q", s))
	}
	return z.SetBigInt(v)
}

// BigInt writes the canonical value of z into out and returns out.
func (z *Element) BigInt(out *big.Int) *big.Int {
	plain := z.fromMont()
	limbsToBig(&plain, out)
	return out
}

func (z *Element) fromMont() Element {
	var res Element
	unit := Element{1}
	res.Mul(z, &unit)
	return res
}

// Bytes returns the canonical big-endian 48-byte encoding.
func (z *Element) Bytes() [Bytes]byte {
	plain := z.fromMont()
	var buf [Bytes]byte
	for i := 0; i < Limbs; i++ {
		for j := 0; j < 8; j++ {
			buf[Bytes-1-(8*i+j)] = byte(plain[i] >> (8 * j))
		}
	}
	return buf
}

// SetBytes sets z from big-endian bytes (reduced mod p) and returns z.
func (z *Element) SetBytes(b []byte) *Element {
	var v big.Int
	v.SetBytes(b)
	return z.SetBigInt(&v)
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool {
	return z[0]|z[1]|z[2]|z[3]|z[4]|z[5] == 0
}

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return *z == one }

// Equal reports whether z == x. The limb-wise chain (rather than array ==)
// lets the comparison inline and exit on the first differing limb — in the
// MSM bucket loop virtually every call fails at limb 0.
func (z *Element) Equal(x *Element) bool {
	return z[0] == x[0] && z[1] == x[1] && z[2] == x[2] &&
		z[3] == x[3] && z[4] == x[4] && z[5] == x[5]
}

// Add sets z = x + y mod p and returns z. The body is unrolled with the
// modulus limbs as immediates — the MSM bucket loop calls this (via Sub/Neg
// too) several times per point addition.
func (z *Element) Add(x, y *Element) *Element {
	var t0, t1, t2, t3, t4, t5, carry uint64
	t0, carry = bits.Add64(x[0], y[0], 0)
	t1, carry = bits.Add64(x[1], y[1], carry)
	t2, carry = bits.Add64(x[2], y[2], carry)
	t3, carry = bits.Add64(x[3], y[3], carry)
	t4, carry = bits.Add64(x[4], y[4], carry)
	t5, _ = bits.Add64(x[5], y[5], carry)
	// p has 381 bits, so 2p < 2^384 and the carry out is always 0 for
	// reduced inputs; reduce by a branch-free conditional subtraction.
	var b uint64
	var s0, s1, s2, s3, s4, s5 uint64
	s0, b = bits.Sub64(t0, pc0, 0)
	s1, b = bits.Sub64(t1, pc1, b)
	s2, b = bits.Sub64(t2, pc2, b)
	s3, b = bits.Sub64(t3, pc3, b)
	s4, b = bits.Sub64(t4, pc4, b)
	s5, b = bits.Sub64(t5, pc5, b)
	if b == 0 { // t >= p
		z[0], z[1], z[2], z[3], z[4], z[5] = s0, s1, s2, s3, s4, s5
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5] = t0, t1, t2, t3, t4, t5
	}
	return z
}

// Double sets z = 2x and returns z.
func (z *Element) Double(x *Element) *Element { return z.Add(x, x) }

// Sub sets z = x - y mod p and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	var t0, t1, t2, t3, t4, t5, borrow uint64
	t0, borrow = bits.Sub64(x[0], y[0], 0)
	t1, borrow = bits.Sub64(x[1], y[1], borrow)
	t2, borrow = bits.Sub64(x[2], y[2], borrow)
	t3, borrow = bits.Sub64(x[3], y[3], borrow)
	t4, borrow = bits.Sub64(x[4], y[4], borrow)
	t5, borrow = bits.Sub64(x[5], y[5], borrow)
	if borrow != 0 {
		var c uint64
		t0, c = bits.Add64(t0, pc0, 0)
		t1, c = bits.Add64(t1, pc1, c)
		t2, c = bits.Add64(t2, pc2, c)
		t3, c = bits.Add64(t3, pc3, c)
		t4, c = bits.Add64(t4, pc4, c)
		t5, _ = bits.Add64(t5, pc5, c)
	}
	z[0], z[1], z[2], z[3], z[4], z[5] = t0, t1, t2, t3, t4, t5
	return z
}

// Neg sets z = -x mod p and returns z.
func (z *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	var t0, t1, t2, t3, t4, t5, borrow uint64
	t0, borrow = bits.Sub64(pc0, x[0], 0)
	t1, borrow = bits.Sub64(pc1, x[1], borrow)
	t2, borrow = bits.Sub64(pc2, x[2], borrow)
	t3, borrow = bits.Sub64(pc3, x[3], borrow)
	t4, borrow = bits.Sub64(pc4, x[4], borrow)
	t5, _ = bits.Sub64(pc5, x[5], borrow)
	z[0], z[1], z[2], z[3], z[4], z[5] = t0, t1, t2, t3, t4, t5
	return z
}

func madd(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	lo, carry = bits.Add64(lo, d, 0)
	hi += carry
	return hi, lo
}

// madd0 returns the high word of a*b + c (the low word is discarded — in
// the fused CIOS round below it is zero by construction of m).
func madd0(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, carry := bits.Add64(lo, c, 0)
	return hi + carry
}

// Mul sets z = x*y mod p and returns z. This is the prover's single hottest
// instruction sequence — every curve-point operation in an MSM runs through
// it — so on amd64 CPUs with BMI2+ADX it is the assembly kernel in
// mul_amd64.s (cpu.ADX); everywhere else (and under -tags purego) it is
// mulGeneric. The two compute the same fully reduced value.
func (z *Element) Mul(x, y *Element) *Element {
	if cpu.ADX {
		mulADX(z, x, y)
		return z
	}
	return z.mulGeneric(x, y)
}

// Square sets z = x² and returns z. It is Mul(x, x) on every path:
// mulADX(x, x) beat a dedicated 21-product SOS squaring, and one algorithm
// per instruction set is less to keep correct.
func (z *Element) Square(x *Element) *Element { return z.Mul(x, x) }

// mulGeneric is the portable Mul: Montgomery CIOS, fused "no-carry" variant.
// Because the top limb of p is < 2^62, the intermediate accumulator never
// overflows the Limbs+1st word, so the multiplication and Montgomery
// reduction interleave in a single unrolled pass with the accumulator in
// scalar locals (registers).
func (z *Element) mulGeneric(x, y *Element) *Element {
	var t0, t1, t2, t3, t4, t5 uint64
	x0, x1, x2, x3, x4, x5 := x[0], x[1], x[2], x[3], x[4], x[5]

	{
		// round 0
		v := y[0]
		var A, C uint64
		A, t0 = bits.Mul64(x0, v)
		m := t0 * pInvNegC
		C = madd0(m, pc0, t0)
		A, t1 = madd(x1, v, 0, A)
		C, t0 = madd(m, pc1, t1, C)
		A, t2 = madd(x2, v, 0, A)
		C, t1 = madd(m, pc2, t2, C)
		A, t3 = madd(x3, v, 0, A)
		C, t2 = madd(m, pc3, t3, C)
		A, t4 = madd(x4, v, 0, A)
		C, t3 = madd(m, pc4, t4, C)
		A, t5 = madd(x5, v, 0, A)
		C, t4 = madd(m, pc5, t5, C)
		t5 = C + A
	}
	{
		// round 1
		v := y[1]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * pInvNegC
		C = madd0(m, pc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, pc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, pc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, pc3, t3, C)
		A, t4 = madd(x4, v, t4, A)
		C, t3 = madd(m, pc4, t4, C)
		A, t5 = madd(x5, v, t5, A)
		C, t4 = madd(m, pc5, t5, C)
		t5 = C + A
	}
	{
		// round 2
		v := y[2]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * pInvNegC
		C = madd0(m, pc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, pc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, pc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, pc3, t3, C)
		A, t4 = madd(x4, v, t4, A)
		C, t3 = madd(m, pc4, t4, C)
		A, t5 = madd(x5, v, t5, A)
		C, t4 = madd(m, pc5, t5, C)
		t5 = C + A
	}
	{
		// round 3
		v := y[3]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * pInvNegC
		C = madd0(m, pc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, pc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, pc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, pc3, t3, C)
		A, t4 = madd(x4, v, t4, A)
		C, t3 = madd(m, pc4, t4, C)
		A, t5 = madd(x5, v, t5, A)
		C, t4 = madd(m, pc5, t5, C)
		t5 = C + A
	}
	{
		// round 4
		v := y[4]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * pInvNegC
		C = madd0(m, pc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, pc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, pc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, pc3, t3, C)
		A, t4 = madd(x4, v, t4, A)
		C, t3 = madd(m, pc4, t4, C)
		A, t5 = madd(x5, v, t5, A)
		C, t4 = madd(m, pc5, t5, C)
		t5 = C + A
	}
	{
		// round 5
		v := y[5]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * pInvNegC
		C = madd0(m, pc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, pc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, pc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, pc3, t3, C)
		A, t4 = madd(x4, v, t4, A)
		C, t3 = madd(m, pc4, t4, C)
		A, t5 = madd(x5, v, t5, A)
		C, t4 = madd(m, pc5, t5, C)
		t5 = C + A
	}

	// Final conditional subtraction, branch-free: compute r - p and select.
	var b uint64
	var s0, s1, s2, s3, s4, s5 uint64
	s0, b = bits.Sub64(t0, pc0, 0)
	s1, b = bits.Sub64(t1, pc1, b)
	s2, b = bits.Sub64(t2, pc2, b)
	s3, b = bits.Sub64(t3, pc3, b)
	s4, b = bits.Sub64(t4, pc4, b)
	s5, b = bits.Sub64(t5, pc5, b)
	if b == 0 { // t >= p
		z[0], z[1], z[2], z[3], z[4], z[5] = s0, s1, s2, s3, s4, s5
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5] = t0, t1, t2, t3, t4, t5
	}
	return z
}

var sqrtExp *big.Int

func init() {
	pm, _ := new(big.Int).SetString(modulusHex, 16)
	if pm.Bit(0) != 1 || pm.Bit(1) != 1 {
		panic("fp: p ≢ 3 (mod 4); Sqrt's exponent does not apply")
	}
	sqrtExp = pm.Rsh(pm.Add(pm, big.NewInt(1)), 2)
}

// Exp sets z = x^e and returns z.
func (z *Element) Exp(x *Element, e *big.Int) *Element {
	if e.Sign() == 0 {
		return z.SetOne()
	}
	base := *x
	res := one
	for i := e.BitLen() - 1; i >= 0; i-- {
		res.Square(&res)
		if e.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	*z = res
	return z
}

// Sqrt sets z to x^((p+1)/4) and returns true when that is a square root
// of x, i.e. when x is a square (p ≡ 3 mod 4). Otherwise it leaves z
// unchanged and returns false. −z is the other root.
func (z *Element) Sqrt(x *Element) bool {
	var r, sq Element
	r.Exp(x, sqrtExp)
	if !sq.Square(&r).Equal(x) {
		return false
	}
	*z = r
	return true
}

// String returns the decimal representation.
func (z *Element) String() string {
	var v big.Int
	z.BigInt(&v)
	return v.String()
}
