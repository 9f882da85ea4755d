package fp

import (
	"math/big"
	"math/bits"
)

// Inversion by Pornin's optimized binary GCD ("Optimized Binary GCD for
// Modular Inversion", IACR ePrint 2020/972, Algorithm 2 with k = 32).
//
// The binary extended GCD keeps a ≡ u·y·K and b ≡ v·y·K (mod p) for a
// known power of two K, starting from a = y, b = p, u = 1, v = 0, and
// halves or subtracts until a = 0 and b = gcd = 1, so that y⁻¹ = v·K. The
// optimized form runs the decisions of invInner steps on 64-bit
// approximations of a and b (their low 31 and top 33 bits; the low bits
// are exact, so every parity test is), collects them as a 2×2 matrix of
// factors at most 2^31 in magnitude, and applies the matrix to a and b
// once per round, over the limbs they still occupy, dividing them by 2^31
// exactly. The
// exact algorithm reaches a = 0 within 2·381 − 1 steps, and so do
// ⌈(2·381 − 1)/31⌉ = 25 rounds; Inverse runs 26, and extra rounds leave
// a = 0, b = 1.
//
// u and v move once per pair of rounds, by the product of the two matrices
// (factors below 2^62) and with one Montgomery word reduction, a division
// by 2^64. One Mul by invFix then removes K together with the Montgomery
// factors, since y is x·R. Nothing allocates; variable time is fine here,
// as for the rest of this package.

const (
	invInner = 31
	invPairs = (2*381 - 1 + 2*invInner - 1) / (2 * invInner)
)

// invFix is 2^(64·invPairs − 62·invPairs)·R³ mod p as raw limbs: at the end
// 1 ≡ v·y·2^(2·invPairs) for y = x·R, so x⁻¹·R = Mul(v, invFix).
var invFix Element

func init() {
	pm, _ := new(big.Int).SetString(modulusHex, 16)
	c := new(big.Int).Lsh(big.NewInt(1), 2*invPairs+3*64*Limbs)
	bigToLimbs(c.Mod(c, pm), (*[Limbs]uint64)(&invFix))
}

// Inverse sets z = 1/x (0 for x = 0) and returns z.
func (z *Element) Inverse(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	a, b := *x, p
	u, v := Element{1}, Element{}
	for range invPairs {
		f0, g0, f1, g1 := invRound(&a, &b)
		h0, k0, h1, k1 := invRound(&a, &b)
		u, v = montComb(&u, h0*f0+k0*f1, &v, h0*g0+k0*g1),
			montComb(&u, h1*f0+k1*f1, &v, h1*g0+k1*g1)
	}
	return z.Mul(&v, &invFix)
}

// invRound runs invInner steps on approximations of a and b, applies them
// to a and b, and returns the round's matrix [[f0, g0], [f1, g1]]:
// a ← (f0·a + g0·b)/2^31, b ← (f1·a + g1·b)/2^31, both non-negative.
func invRound(a, b *Element) (f0, g0, f1, g1 int64) {
	n := max(bitLen(a), bitLen(b), 64)
	aa := a[0]&(1<<31-1) | bitsAt(a, n-33)<<31
	bb := b[0]&(1<<31-1) | bitsAt(b, n-33)<<31
	f0, g0, f1, g1 = 1, 0, 0, 1
	for range invInner {
		if aa&1 == 1 {
			if aa < bb {
				aa, bb = bb, aa
				f0, g0, f1, g1 = f1, g1, f0, g0
			}
			aa -= bb
			f0 -= f1
			g0 -= g1
		}
		aa >>= 1
		f1 <<= 1
		g1 <<= 1
	}
	var na, nb Element
	if shiftedComb(&na, (n+63)/64, a, f0, b, g0) {
		f0, g0 = -f0, -g0
	}
	if shiftedComb(&nb, (n+63)/64, a, f1, b, g1) {
		f1, g1 = -f1, -g1
	}
	*a, *b = na, nb
	return f0, g0, f1, g1
}

// bitLen returns the bit length of x as an integer.
func bitLen(x *Element) int {
	for i := Limbs - 1; i >= 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return 0
}

// bitsAt returns the 33 bits of x from bit s up (s ≥ 0).
func bitsAt(x *Element, s int) uint64 {
	w, o := s/64, uint(s%64)
	v := x[w] >> o
	if w+1 < Limbs {
		v |= x[w+1] << (64 - o) // 0 when o = 0
	}
	return v & (1<<33 - 1)
}

// wide is an integer one limb wider than an Element.
type wide [Limbs + 1]uint64

// comb sets r = |x·f + y·g| and reports whether x·f + y·g < 0, for
// x, y < 2^(64·n) and |f|, |g| < 2^63: both products run down the n low
// limbs together with the sum or difference of the two.
func comb(r *wide, n int, x *Element, f int64, y *Element, g int64) bool {
	mf, mg := uint64(f), uint64(g)
	if f < 0 {
		mf = -mf
	}
	if g < 0 {
		mg = -mg
	}
	sub := (f < 0) != (g < 0)
	var cf, cg, c uint64
	for i := range n {
		hf, lf := bits.Mul64(x[i], mf)
		hg, lg := bits.Mul64(y[i], mg)
		var c1, c2 uint64
		lf, c1 = bits.Add64(lf, cf, 0)
		lg, c2 = bits.Add64(lg, cg, 0)
		cf, cg = hf+c1, hg+c2
		if sub {
			r[i], c = bits.Sub64(lf, lg, c)
		} else {
			r[i], c = bits.Add64(lf, lg, c)
		}
	}
	if !sub {
		r[n] = cf + cg + c
		return f < 0
	}
	r[n], c = bits.Sub64(cf, cg, c)
	if c == 0 {
		return f < 0
	}
	// |y·g| > |x·f|: negate the two's-complement difference.
	var borrow uint64
	for i := range n + 1 {
		r[i], borrow = bits.Sub64(0, r[i], borrow)
	}
	return f >= 0
}

// shiftedComb sets z = |x·f + y·g| / 2^31 for x, y < 2^(64·n), which the
// round's factors make exact and below 2^384, and reports whether
// x·f + y·g was negative.
func shiftedComb(z *Element, n int, x *Element, f int64, y *Element, g int64) bool {
	var s wide
	negative := comb(&s, n, x, f, y, g)
	for i := range Limbs {
		z[i] = s[i]>>invInner | s[i+1]<<(64-invInner)
	}
	return negative
}

// montComb returns (x·f + y·g)·2^-64 mod p for x, y < p and |f|, |g| ≤ 2^62:
// one Montgomery word reduction divides |x·f + y·g|, below 2^444, by 2^64
// to below 2^380 + p < 2p, and the sign comes back as p − r.
func montComb(x *Element, f int64, y *Element, g int64) Element {
	var s wide
	negative := comb(&s, Limbs, x, f, y, g)
	m := s[0] * pInvNeg
	var c uint64
	for i := range Limbs {
		hi, lo := bits.Mul64(m, p[i])
		var c1, c2 uint64
		s[i], c1 = bits.Add64(s[i], lo, 0)
		s[i], c2 = bits.Add64(s[i], c, 0)
		c = hi + c1 + c2
	}
	s[Limbs] += c
	r := Element{s[1], s[2], s[3], s[4], s[5], s[6]}
	if !smallerThanP(&r) {
		var b uint64
		for i := range Limbs {
			r[i], b = bits.Sub64(r[i], p[i], b)
		}
	}
	if negative && !r.IsZero() {
		var b uint64
		for i := range Limbs {
			r[i], b = bits.Sub64(p[i], r[i], b)
		}
	}
	return r
}

// smallerThanP reports x < p as integers.
func smallerThanP(x *Element) bool {
	for i := Limbs - 1; i >= 0; i-- {
		if x[i] != p[i] {
			return x[i] < p[i]
		}
	}
	return false
}
