// Package ff implements arithmetic over the BLS12-381 scalar field Fr,
// the 255-bit prime field with modulus
//
//	q = 0x73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001
//
// Elements are stored in Montgomery form as four little-endian 64-bit limbs.
// All arithmetic is constant-size limb arithmetic built on math/bits; the
// Montgomery constants are derived at package init from math/big so the only
// trusted literal is the modulus itself.
package ff

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"zkphire/internal/cpu"
)

// Limbs is the number of 64-bit limbs in an Element.
const Limbs = 4

// Bits is the bit size of the modulus.
const Bits = 255

// Bytes is the byte size of a canonical serialized element.
const Bytes = 32

// Element is a field element in Montgomery form: the limbs hold a*R mod q
// where R = 2^256.
type Element [Limbs]uint64

// q is the field modulus as limbs (little-endian).
var q = Element{
	0xffffffff00000001,
	0x53bda402fffe5bfe,
	0x3339d80809a1d805,
	0x73eda753299d7d48,
}

// Modulus string in hex, the single trusted constant.
const modulusHex = "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"

// Modulus limbs and the Montgomery constant as untyped constants so the
// unrolled mulGeneric/Add/Sub/Neg below fold them into immediates instead
// of burning four registers; init cross-checks them against modulusHex
// (the single trusted literal) and panics on mismatch.
// The amd64 kernel reads the same values from the checked variables q and
// qInvNeg.
const (
	qc0 = 0xffffffff00000001
	qc1 = 0x53bda402fffe5bfe
	qc2 = 0x3339d80809a1d805
	qc3 = 0x73eda753299d7d48
	// qInvNegC = -q^{-1} mod 2^64.
	qInvNegC = 0xfffffffeffffffff
)

var (
	qBig *big.Int // modulus
	// qInvNeg = -q^{-1} mod 2^64
	qInvNeg uint64
	// rSquare = R^2 mod q, used to convert into Montgomery form.
	rSquare Element
	// one is 1 in Montgomery form (R mod q).
	one Element
	// zero is the additive identity.
	zero Element
	// twoInv is 1/2 in Montgomery form.
	twoInv Element
)

func init() {
	qBig, _ = new(big.Int).SetString(modulusHex, 16)

	// Consistency: limbs must match the hex constant.
	var check big.Int
	limbsToBig(&q, &check)
	if check.Cmp(qBig) != 0 {
		panic("ff: modulus limb constant mismatch")
	}

	// qInvNeg via Newton iteration mod 2^64.
	inv := uint64(1)
	for i := 0; i < 6; i++ {
		inv *= 2 - q[0]*inv
	}
	qInvNeg = -inv

	if q != (Element{qc0, qc1, qc2, qc3}) || qInvNeg != qInvNegC {
		panic("ff: unrolled-arithmetic constants disagree with the modulus")
	}

	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, qBig)
	bigToLimbs(r, (*[Limbs]uint64)(&one))

	r2 := new(big.Int).Lsh(big.NewInt(1), 512)
	r2.Mod(r2, qBig)
	bigToLimbs(r2, (*[Limbs]uint64)(&rSquare))

	half := new(big.Int).ModInverse(big.NewInt(2), qBig)
	half.Lsh(half, 256)
	half.Mod(half, qBig)
	bigToLimbs(half, (*[Limbs]uint64)(&twoInv))
}

// Modulus returns a copy of the field modulus as a big.Int.
func Modulus() *big.Int { return new(big.Int).Set(qBig) }

func limbsToBig(e *Element, out *big.Int) {
	var buf [Bytes]byte
	for i := 0; i < Limbs; i++ {
		for j := 0; j < 8; j++ {
			buf[Bytes-1-(8*i+j)] = byte(e[i] >> (8 * j))
		}
	}
	out.SetBytes(buf[:])
}

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

// One returns 1 (multiplicative identity).
func One() Element { return one }

// Zero returns 0.
func Zero() Element { return zero }

// TwoInv returns 1/2.
func TwoInv() Element { return twoInv }

// SetZero sets z to 0 and returns z.
func (z *Element) SetZero() *Element {
	*z = zero
	return z
}

// SetOne sets z to 1 and returns z.
func (z *Element) SetOne() *Element {
	*z = one
	return z
}

// Set sets z to x and returns z.
func (z *Element) Set(x *Element) *Element {
	*z = *x
	return z
}

// SetUint64 sets z to v (converted into Montgomery form) and returns z.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v}
	return z.Mul(z, &rSquare)
}

// SetInt64 sets z to v, handling negative values, and returns z.
func (z *Element) SetInt64(v int64) *Element {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	return z.Neg(z)
}

// NewElement returns v as a field element.
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// NewInt64 returns v as a field element, handling negative values.
func NewInt64(v int64) Element {
	var e Element
	e.SetInt64(v)
	return e
}

// SetBigInt sets z to v mod q and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element {
	var t big.Int
	t.Mod(v, qBig)
	var plain Element
	bigToLimbs(&t, (*[Limbs]uint64)(&plain))
	return z.Mul(&plain, &rSquare)
}

// BigInt writes the canonical (non-Montgomery) value of z into out and
// returns out.
func (z *Element) BigInt(out *big.Int) *big.Int {
	plain := z.fromMont()
	limbsToBig(&plain, out)
	return out
}

// Regular returns the canonical (non-Montgomery) value of z as little-endian
// 64-bit limbs. MSM digit decomposition uses this to slice scalars into
// Pippenger windows without a big.Int round trip per scalar.
func (z *Element) Regular() [Limbs]uint64 {
	return [Limbs]uint64(z.fromMont())
}

// fromMont returns the canonical-representation limbs of z.
func (z *Element) fromMont() Element {
	var res Element
	mont := *z
	unit := Element{1}
	res.Mul(&mont, &unit)
	return res
}

// Bytes returns the canonical big-endian 32-byte encoding of z.
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

// SetBytes sets z from big-endian bytes, reducing mod q, and returns z.
func (z *Element) SetBytes(b []byte) *Element {
	var v big.Int
	v.SetBytes(b)
	return z.SetBigInt(&v)
}

// ErrInvalidEncoding reports a canonical-encoding violation.
var ErrInvalidEncoding = errors.New("ff: encoding is not a canonical field element")

// SetBytesCanonical sets z from exactly 32 big-endian bytes and fails if the
// value is not strictly below the modulus.
func (z *Element) SetBytesCanonical(b []byte) error {
	if len(b) != Bytes {
		return ErrInvalidEncoding
	}
	var v big.Int
	v.SetBytes(b)
	if v.Cmp(qBig) >= 0 {
		return ErrInvalidEncoding
	}
	z.SetBigInt(&v)
	return nil
}

// SetRandom sets z to a uniform field element read from rng and returns z.
func (z *Element) SetRandom(rng io.Reader) (*Element, error) {
	var buf [48]byte // 128 bits of slack for negligible bias
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return nil, err
	}
	var v big.Int
	v.SetBytes(buf[:])
	return z.SetBigInt(&v), nil
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool {
	return z[0]|z[1]|z[2]|z[3] == 0
}

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool {
	return *z == one
}

// Equal reports whether z == x. The limb-wise chain (rather than array ==)
// lets the comparison inline and exit on the first differing limb — in the
// sparsity scans virtually every call fails at limb 0.
func (z *Element) Equal(x *Element) bool {
	return z[0] == x[0] && z[1] == x[1] && z[2] == x[2] && z[3] == x[3]
}

// smallerThanModulus reports whether z (as plain limbs) < q.
func smallerThanModulus(z *Element) bool {
	for i := Limbs - 1; i >= 0; i-- {
		if z[i] < q[i] {
			return true
		}
		if z[i] > q[i] {
			return false
		}
	}
	return false // equal
}

// Add sets z = x + y mod q and returns z. The body is unrolled with the
// modulus limbs as immediates and a branch-free conditional subtraction —
// the SumCheck scan and every MLE fold run through it.
func (z *Element) Add(x, y *Element) *Element {
	var t0, t1, t2, t3, carry uint64
	t0, carry = bits.Add64(x[0], y[0], 0)
	t1, carry = bits.Add64(x[1], y[1], carry)
	t2, carry = bits.Add64(x[2], y[2], carry)
	t3, _ = bits.Add64(x[3], y[3], carry)
	// 2q < 2^256, so the carry out is always 0 for reduced inputs; reduce by
	// computing t - q and selecting on the borrow.
	var b uint64
	var s0, s1, s2, s3 uint64
	s0, b = bits.Sub64(t0, qc0, 0)
	s1, b = bits.Sub64(t1, qc1, b)
	s2, b = bits.Sub64(t2, qc2, b)
	s3, b = bits.Sub64(t3, qc3, b)
	if b == 0 { // t >= q
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
	return z
}

// Double sets z = 2x mod q and returns z.
func (z *Element) Double(x *Element) *Element {
	return z.Add(x, x)
}

// Sub sets z = x - y mod q and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	var t0, t1, t2, t3, borrow uint64
	t0, borrow = bits.Sub64(x[0], y[0], 0)
	t1, borrow = bits.Sub64(x[1], y[1], borrow)
	t2, borrow = bits.Sub64(x[2], y[2], borrow)
	t3, borrow = bits.Sub64(x[3], y[3], borrow)
	if borrow != 0 {
		var c uint64
		t0, c = bits.Add64(t0, qc0, 0)
		t1, c = bits.Add64(t1, qc1, c)
		t2, c = bits.Add64(t2, qc2, c)
		t3, _ = bits.Add64(t3, qc3, c)
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	return z
}

// Neg sets z = -x mod q and returns z.
func (z *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	var t0, t1, t2, t3, borrow uint64
	t0, borrow = bits.Sub64(qc0, x[0], 0)
	t1, borrow = bits.Sub64(qc1, x[1], borrow)
	t2, borrow = bits.Sub64(qc2, x[2], borrow)
	t3, _ = bits.Sub64(qc3, x[3], borrow)
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	return z
}

// madd returns hi, lo such that hi*2^64 + lo = a*b + c + d.
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

// Mul sets z = x*y mod q and returns z. On amd64 CPUs with BMI2+ADX
// (cpu.ADX) it is the assembly kernel in mul_amd64.s; everywhere else (and
// under -tags purego) it is mulGeneric. The two compute the same fully
// reduced value. Slice loops should call MulVec/ScalarMulVec, which keep
// the whole loop inside the kernel.
func (z *Element) Mul(x, y *Element) *Element {
	if cpu.ADX {
		mulADX(z, x, y)
		return z
	}
	return z.mulGeneric(x, y)
}

// mulGeneric is the portable Mul: Montgomery CIOS, fused "no-carry"
// variant. The top limb of q is < 2^63, so the accumulator never
// overflows the Limbs+1st word and the multiplication and Montgomery
// reduction interleave in a single fully unrolled pass held in scalar
// locals, with the modulus limbs folded in as immediates.
func (z *Element) mulGeneric(x, y *Element) *Element {
	var t0, t1, t2, t3 uint64
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]

	{
		// round 0
		v := y[0]
		var A, C uint64
		A, t0 = bits.Mul64(x0, v)
		m := t0 * qInvNegC
		C = madd0(m, qc0, t0)
		A, t1 = madd(x1, v, 0, A)
		C, t0 = madd(m, qc1, t1, C)
		A, t2 = madd(x2, v, 0, A)
		C, t1 = madd(m, qc2, t2, C)
		A, t3 = madd(x3, v, 0, A)
		C, t2 = madd(m, qc3, t3, C)
		t3 = C + A
	}
	{
		// round 1
		v := y[1]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * qInvNegC
		C = madd0(m, qc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, qc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, qc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, qc3, t3, C)
		t3 = C + A
	}
	{
		// round 2
		v := y[2]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * qInvNegC
		C = madd0(m, qc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, qc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, qc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, qc3, t3, C)
		t3 = C + A
	}
	{
		// round 3
		v := y[3]
		var A, C uint64
		A, t0 = madd(x0, v, t0, 0)
		m := t0 * qInvNegC
		C = madd0(m, qc0, t0)
		A, t1 = madd(x1, v, t1, A)
		C, t0 = madd(m, qc1, t1, C)
		A, t2 = madd(x2, v, t2, A)
		C, t1 = madd(m, qc2, t2, C)
		A, t3 = madd(x3, v, t3, A)
		C, t2 = madd(m, qc3, t3, C)
		t3 = C + A
	}

	// Final conditional subtraction, branch-free: compute r - q and select.
	var b uint64
	var s0, s1, s2, s3 uint64
	s0, b = bits.Sub64(t0, qc0, 0)
	s1, b = bits.Sub64(t1, qc1, b)
	s2, b = bits.Sub64(t2, qc2, b)
	s3, b = bits.Sub64(t3, qc3, b)
	if b == 0 { // t >= q
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
	return z
}

// Square sets z = x² mod q and returns z. It is Mul(x, x) on every path:
// mulADX(x, x) beat a dedicated squaring, and one algorithm per
// instruction set is less to keep correct.
func (z *Element) Square(x *Element) *Element { return z.Mul(x, x) }

// Exp sets z = x^e mod q (e as a big.Int, e >= 0) and returns z.
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

// ExpUint64 sets z = x^e for a machine-word exponent and returns z.
func (z *Element) ExpUint64(x *Element, e uint64) *Element {
	if e == 0 {
		return z.SetOne()
	}
	base := *x
	res := one
	for i := 63 - bits.LeadingZeros64(e); i >= 0; i-- {
		res.Square(&res)
		if e&(1<<uint(i)) != 0 {
			res.Mul(&res, &base)
		}
	}
	*z = res
	return z
}

var qMinus2 = new(big.Int).Sub(mustBig(modulusHex), big.NewInt(2))

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("ff: bad hex constant")
	}
	return v
}

// Inverse sets z = 1/x mod q (z = 0 when x = 0) and returns z.
func (z *Element) Inverse(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	return z.Exp(x, qMinus2)
}

// BatchInvert inverts every nonzero element of a in place using Montgomery's
// batching trick (one inversion plus 3(n-1) multiplications). Zero entries
// are left as zero.
func BatchInvert(a []Element) { BatchInvertScratch(a, make([]Element, len(a))) }

// Halve sets z = x/2 and returns z.
func (z *Element) Halve(x *Element) *Element {
	return z.Mul(x, &twoInv)
}

// String returns the decimal representation of z.
func (z *Element) String() string {
	var v big.Int
	z.BigInt(&v)
	return v.String()
}

// Hex returns the 0x-prefixed hexadecimal representation of z.
func (z *Element) Hex() string {
	var v big.Int
	z.BigInt(&v)
	return fmt.Sprintf("0x%064x", &v)
}

// Uint64 returns the canonical value of z truncated to 64 bits, plus a flag
// reporting whether z actually fits in a uint64.
func (z *Element) Uint64() (uint64, bool) {
	plain := z.fromMont()
	return plain[0], plain[1]|plain[2]|plain[3] == 0
}

// Cmp compares canonical values: -1 if z < x, 0 if equal, 1 if z > x.
func (z *Element) Cmp(x *Element) int {
	zp, xp := z.fromMont(), x.fromMont()
	for i := Limbs - 1; i >= 0; i-- {
		if zp[i] < xp[i] {
			return -1
		}
		if zp[i] > xp[i] {
			return 1
		}
	}
	return 0
}
