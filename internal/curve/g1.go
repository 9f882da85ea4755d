// Package curve implements the BLS12-381 G1 group (y² = x³ + 4 over Fp) with
// Jacobian-coordinate arithmetic and Pippenger multi-scalar multiplication.
// MSM is the polynomial-commitment kernel the zkPHIRE MSM unit accelerates.
// Every MSM here follows the paper's Sparse MSM rule: 0 and 1 scalars never
// reach a bucket, and the window is sized by the scalars that do.
package curve

import (
	"math/big"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// B is the curve coefficient: y² = x³ + B.
var bCoeff fp.Element

// G1Affine is a point in affine coordinates. The zero value is NOT the
// identity; use Infinity to test/construct the identity.
type G1Affine struct {
	X, Y     fp.Element
	Infinity bool
}

// G1Jac is a point in Jacobian coordinates (X/Z², Y/Z³); Z = 0 encodes the
// identity.
type G1Jac struct {
	X, Y, Z fp.Element
}

var g1Gen G1Affine

func init() {
	bCoeff.SetUint64(4)
	g1Gen.X.SetHex("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb")
	g1Gen.Y.SetHex("08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1")
	if !g1Gen.IsOnCurve() {
		panic("curve: generator is not on the curve")
	}
	initEndo()
}

// Generator returns the standard G1 generator.
func Generator() G1Affine { return g1Gen }

// GeneratorJac returns the generator in Jacobian coordinates.
func GeneratorJac() G1Jac {
	var g G1Jac
	g.FromAffine(&g1Gen)
	return g
}

// IsOnCurve reports whether the affine point satisfies y² = x³ + 4.
func (p *G1Affine) IsOnCurve() bool {
	if p.Infinity {
		return true
	}
	var lhs, rhs fp.Element
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &bCoeff)
	return lhs.Equal(&rhs)
}

// Equal reports whether two affine points are the same.
func (p *G1Affine) Equal(q *G1Affine) bool {
	if p.Infinity || q.Infinity {
		return p.Infinity == q.Infinity
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Neg sets p = -q and returns p.
func (p *G1Affine) Neg(q *G1Affine) *G1Affine {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Infinity = q.Infinity
	return p
}

// SetInfinity marks p as the identity and returns p.
func (p *G1Affine) SetInfinity() *G1Affine {
	p.Infinity = true
	p.X.SetZero()
	p.Y.SetZero()
	return p
}

// FromJacobian converts q to affine coordinates and returns p.
func (p *G1Affine) FromJacobian(q *G1Jac) *G1Affine {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	var zInv, zInv2, zInv3 fp.Element
	zInv.Inverse(&q.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.X.Mul(&q.X, &zInv2)
	p.Y.Mul(&q.Y, &zInv3)
	p.Infinity = false
	return p
}

// IsInfinity reports whether the Jacobian point is the identity.
func (p *G1Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity marks p as the identity and returns p.
func (p *G1Jac) SetInfinity() *G1Jac {
	p.X.SetOne()
	p.Y.SetOne()
	p.Z.SetZero()
	return p
}

// Set sets p = q and returns p.
func (p *G1Jac) Set(q *G1Jac) *G1Jac {
	*p = *q
	return p
}

// FromAffine lifts an affine point to Jacobian coordinates and returns p.
func (p *G1Jac) FromAffine(q *G1Affine) *G1Jac {
	if q.Infinity {
		return p.SetInfinity()
	}
	p.X = q.X
	p.Y = q.Y
	p.Z.SetOne()
	return p
}

// Neg sets p = -q and returns p.
func (p *G1Jac) Neg(q *G1Jac) *G1Jac {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Z = q.Z
	return p
}

// Equal reports whether p and q represent the same point.
func (p *G1Jac) Equal(q *G1Jac) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	// Cross-multiply to compare without inversions.
	var pz2, qz2, pz3, qz3, l, r fp.Element
	pz2.Square(&p.Z)
	qz2.Square(&q.Z)
	pz3.Mul(&pz2, &p.Z)
	qz3.Mul(&qz2, &q.Z)
	l.Mul(&p.X, &qz2)
	r.Mul(&q.X, &pz2)
	if !l.Equal(&r) {
		return false
	}
	l.Mul(&p.Y, &qz3)
	r.Mul(&q.Y, &pz3)
	return l.Equal(&r)
}

// Double sets p = 2q (dbl-2009-l, a = 0) and returns p.
func (p *G1Jac) Double(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	var a, b, c, d, e, f, t fp.Element
	a.Square(&q.X)            // A = X²
	b.Square(&q.Y)            // B = Y²
	c.Square(&b)              // C = B²
	d.Add(&q.X, &b)           // (X+B)
	d.Square(&d)              //
	d.Sub(&d, &a)             //
	d.Sub(&d, &c)             //
	d.Double(&d)              // D = 2((X+B)² − A − C)
	e.Double(&a)              //
	e.Add(&e, &a)             // E = 3A
	f.Square(&e)              // F = E²
	var x3, y3, z3 fp.Element //
	x3.Sub(&f, &d)            //
	x3.Sub(&x3, &d)           // X3 = F − 2D
	t.Sub(&d, &x3)            //
	y3.Mul(&e, &t)            //
	c.Double(&c)              //
	c.Double(&c)              //
	c.Double(&c)              // 8C
	y3.Sub(&y3, &c)           // Y3 = E(D−X3) − 8C
	z3.Mul(&q.Y, &q.Z)        //
	z3.Double(&z3)            // Z3 = 2YZ
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// AddAssign sets p += q (add-2007-bl) and returns p.
func (p *G1Jac) AddAssign(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, i, j, r, v fp.Element
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	s1.Mul(&p.Y, &q.Z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &u1)
	if h.IsZero() {
		if s1.Equal(&s2) {
			return p.Double(p)
		}
		return p.SetInfinity()
	}
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	r.Sub(&s2, &s1)
	r.Double(&r)
	v.Mul(&u1, &i)

	var x3, y3, z3, t fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &q.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// AddMixed sets p += q for an affine q (madd-2007-bl) and returns p.
func (p *G1Jac) AddMixed(q *G1Affine) *G1Jac {
	if q.Infinity {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(q)
	}
	var z1z1, u2, s2, h, hh, i, j, r, v fp.Element
	z1z1.Square(&p.Z)
	u2.Mul(&q.X, &z1z1)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &p.X)
	if h.IsZero() {
		if s2.Equal(&p.Y) {
			return p.Double(p)
		}
		return p.SetInfinity()
	}
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)
	j.Mul(&h, &i)
	r.Sub(&s2, &p.Y)
	r.Double(&r)
	v.Mul(&p.X, &i)

	var x3, y3, z3, t fp.Element
	x3.Square(&r)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	t.Sub(&v, &x3)
	y3.Mul(&r, &t)
	t.Mul(&p.Y, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// ScalarMul sets p = k·q and returns p. The scalar is a field element of the
// BLS12-381 scalar field (its canonical integer value is used).
func (p *G1Jac) ScalarMul(q *G1Jac, k *ff.Element) *G1Jac {
	var kBig big.Int
	k.BigInt(&kBig)
	return p.ScalarMulBig(q, &kBig)
}

// ScalarMulBig sets p = k·q for a big.Int scalar and returns p.
func (p *G1Jac) ScalarMulBig(q *G1Jac, k *big.Int) *G1Jac {
	var acc G1Jac
	acc.SetInfinity()
	if k.Sign() == 0 || q.IsInfinity() {
		return p.Set(&acc)
	}
	var kAbs big.Int
	kAbs.Abs(k)
	base := *q
	for i := kAbs.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if kAbs.Bit(i) == 1 {
			acc.AddAssign(&base)
		}
	}
	if k.Sign() < 0 {
		acc.Neg(&acc)
	}
	return p.Set(&acc)
}

// pointGrain is the minimum chunk size for loops whose iterations are curve
// point operations (~0.7–1 µs per addition with the ADX fp.Mul, ~1.2–1.7 µs
// on the portable path, vs ~50–100 ns for one field multiplication).
const pointGrain = 64

// BatchFromJacobian converts a slice of Jacobian points to affine with one
// field inversion per chunk (Montgomery batching), mirroring the hardware's
// batched-inverse unit.
func BatchFromJacobian(in []G1Jac) []G1Affine {
	return BatchFromJacobianWorkers(in, 0)
}

// BatchFromJacobianWorkers is BatchFromJacobian with a worker budget. Each
// chunk runs its own Montgomery batch inversion; the per-point results are
// independent of the chunking.
func BatchFromJacobianWorkers(in []G1Jac, workers int) []G1Affine {
	n := len(in)
	out := make([]G1Affine, n)
	parallel.ForGrain(workers, n, pointGrain, func(lo, hi int) {
		zs := make([]fp.Element, hi-lo)
		for i := lo; i < hi; i++ {
			if in[i].IsInfinity() {
				zs[i-lo].SetZero()
			} else {
				zs[i-lo] = in[i].Z
			}
		}
		batchInvertFp(zs)
		for i := lo; i < hi; i++ {
			if in[i].IsInfinity() {
				out[i].SetInfinity()
				continue
			}
			var z2, z3 fp.Element
			z2.Square(&zs[i-lo])
			z3.Mul(&z2, &zs[i-lo])
			out[i].X.Mul(&in[i].X, &z2)
			out[i].Y.Mul(&in[i].Y, &z3)
		}
	})
	return out
}

func batchInvertFp(a []fp.Element) {
	batchInvertFpScratch(a, nil)
}

// batchInvertFpScratch is batchInvertFp with an optional caller-owned
// prefix buffer (len >= len(a)) so hot loops can amortize the allocation.
func batchInvertFpScratch(a, scratch []fp.Element) {
	n := len(a)
	if n == 0 {
		return
	}
	prefix := scratch
	if len(prefix) < n {
		prefix = make([]fp.Element, n)
	}
	acc := fp.One()
	for i := 0; i < n; i++ {
		prefix[i] = acc
		if !a[i].IsZero() {
			acc.Mul(&acc, &a[i])
		}
	}
	var inv fp.Element
	inv.Inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if a[i].IsZero() {
			continue
		}
		var ai fp.Element
		ai.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &a[i])
		a[i] = ai
	}
}
