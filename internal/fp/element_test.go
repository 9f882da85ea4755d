package fp

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBig(rng *rand.Rand) *big.Int {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	v := new(big.Int).SetBytes(buf)
	return v.Mod(v, pBig)
}

func toBig(e *Element) *big.Int {
	var v big.Int
	e.BigInt(&v)
	return &v
}

func TestModulusConstants(t *testing.T) {
	if pBig.BitLen() != 381 {
		t.Fatalf("modulus bit length = %d, want 381", pBig.BitLen())
	}
	if !pBig.ProbablyPrime(32) {
		t.Fatal("modulus not prime")
	}
	if pInvNeg*p[0] != ^uint64(0) {
		t.Fatal("pInvNeg incorrect")
	}
	if toBig(&one).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Montgomery one decodes wrong")
	}
}

func TestArithmeticAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		av, bv := randBig(rng), randBig(rng)
		var a, b Element
		a.SetBigInt(av)
		b.SetBigInt(bv)

		var sum, diff, prod, neg Element
		sum.Add(&a, &b)
		diff.Sub(&a, &b)
		prod.Mul(&a, &b)
		neg.Neg(&a)

		check := func(name string, got *Element, want *big.Int) {
			w := new(big.Int).Mod(want, pBig)
			if toBig(got).Cmp(w) != 0 {
				t.Fatalf("%s mismatch at %d", name, i)
			}
		}
		check("add", &sum, new(big.Int).Add(av, bv))
		check("sub", &diff, new(big.Int).Sub(av, bv))
		check("mul", &prod, new(big.Int).Mul(av, bv))
		check("neg", &neg, new(big.Int).Neg(av))
	}
}

// TestSquareMatchesMul pins Square, in place and not, to the math/big
// Montgomery product over random elements and the values most likely to
// trip the carry chains (0, 1, p−1, elements with saturated limbs).
func TestSquareMatchesMul(t *testing.T) {
	check := func(x *Element) {
		want := montMulBig(x, x)
		var got Element
		if got.Square(x); got != want {
			t.Fatalf("Square(%s) = %x, math/big %x", x.String(), got, want)
		}
		got = *x
		if got.Square(&got); got != want {
			t.Fatalf("aliased Square(%s) = %x, math/big %x", x.String(), got, want)
		}
	}
	var e Element
	check(e.SetZero())
	check(e.SetOne())
	check(e.SetBigInt(new(big.Int).Sub(pBig, big.NewInt(1))))
	check(e.SetBigInt(new(big.Int).Rsh(pBig, 1)))
	check(e.SetHex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		e.SetBigInt(randBig(rng))
		check(&e)
	}
}

// TestThirdRootOne checks the derived β: a nontrivial cube root of unity.
func TestThirdRootOne(t *testing.T) {
	beta := ThirdRootOne()
	if beta.IsOne() || beta.IsZero() {
		t.Fatal("β is trivial")
	}
	var cube Element
	cube.Square(&beta)
	cube.Mul(&cube, &beta)
	if !cube.IsOne() {
		t.Fatal("β³ != 1")
	}
}

func TestQuickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gen := func() Element {
		var e Element
		e.SetBigInt(randBig(rng))
		return e
	}
	assoc := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		var x, y Element
		x.Mul(&a, &b)
		x.Mul(&x, &c)
		y.Mul(&b, &c)
		y.Mul(&a, &y)
		return x.Equal(&y)
	}
	distrib := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		var bc, l, ab, ac, r Element
		bc.Add(&b, &c)
		l.Mul(&a, &bc)
		ab.Mul(&a, &b)
		ac.Mul(&a, &c)
		r.Add(&ab, &ac)
		return l.Equal(&r)
	}
	if err := quick.Check(assoc, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(distrib, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20; i++ {
		var a Element
		a.SetBigInt(randBig(rng))
		b := a.Bytes()
		var back Element
		back.SetBytes(b[:])
		if !back.Equal(&a) {
			t.Fatal("bytes round trip mismatch")
		}
	}
}

func TestSetHex(t *testing.T) {
	var a Element
	a.SetHex("1a")
	var want Element
	want.SetUint64(26)
	if !a.Equal(&want) {
		t.Fatal("SetHex mismatch")
	}
}

// TestSqrtAgainstBig checks Sqrt against big.Int.ModSqrt on random squares
// (the same root, not just a root), on random elements (which are squares
// half the time), and on 0.
func TestSqrtAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var residues, nonResidues int
	check := func(av *big.Int) {
		var a, z Element
		a.SetBigInt(av)
		z.SetUint64(7)
		want := new(big.Int).ModSqrt(av, pBig)
		ok := z.Sqrt(&a)
		switch {
		case want == nil && ok:
			t.Fatalf("Sqrt found a root of the non-residue %v", av)
		case want == nil:
			nonResidues++
			if toBig(&z).Cmp(big.NewInt(7)) != 0 {
				t.Fatal("Sqrt changed z on a non-residue")
			}
		case !ok:
			t.Fatalf("Sqrt found no root of the residue %v", av)
		case toBig(&z).Cmp(want) != 0:
			t.Fatalf("Sqrt(%v) = %v, ModSqrt = %v", av, toBig(&z), want)
		default:
			residues++
		}
	}
	for i := 0; i < 100; i++ {
		r := randBig(rng)
		check(r.Mul(r, r).Mod(r, pBig))
		check(randBig(rng))
	}
	check(big.NewInt(0))
	if nonResidues == 0 || residues <= 100 {
		t.Fatalf("%d residues and %d non-residues: the random half did not exercise both", residues, nonResidues)
	}
}
