package ff

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func randElems(t testing.TB, n int) []Element {
	t.Helper()
	return NewRand(1).Elements(n)
}

func toBig(e *Element) *big.Int {
	var v big.Int
	e.BigInt(&v)
	return &v
}

func fromBig(v *big.Int) Element {
	var e Element
	e.SetBigInt(v)
	return e
}

func TestModulusConstants(t *testing.T) {
	if qBig.BitLen() != 255 {
		t.Fatalf("modulus bit length = %d, want 255", qBig.BitLen())
	}
	if !qBig.ProbablyPrime(32) {
		t.Fatal("modulus is not prime")
	}
	// qInvNeg * q[0] ≡ -1 mod 2^64
	if qInvNeg*q[0] != ^uint64(0) {
		t.Fatalf("qInvNeg incorrect: %x", qInvNeg)
	}
	// one must represent the integer 1
	if got := toBig(&one); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("Montgomery one decodes to %v", got)
	}
}

func TestAddSubMulAgainstBig(t *testing.T) {
	rng := NewRand(42)
	for i := 0; i < 500; i++ {
		a, b := rng.Element(), rng.Element()
		ab, bb := toBig(&a), toBig(&b)

		var sum, diff, prod Element
		sum.Add(&a, &b)
		diff.Sub(&a, &b)
		prod.Mul(&a, &b)

		wantSum := new(big.Int).Add(ab, bb)
		wantSum.Mod(wantSum, qBig)
		wantDiff := new(big.Int).Sub(ab, bb)
		wantDiff.Mod(wantDiff, qBig)
		wantProd := new(big.Int).Mul(ab, bb)
		wantProd.Mod(wantProd, qBig)

		if toBig(&sum).Cmp(wantSum) != 0 {
			t.Fatalf("add mismatch at %d", i)
		}
		if toBig(&diff).Cmp(wantDiff) != 0 {
			t.Fatalf("sub mismatch at %d", i)
		}
		if toBig(&prod).Cmp(wantProd) != 0 {
			t.Fatalf("mul mismatch at %d: got %v want %v", i, toBig(&prod), wantProd)
		}
	}
}

func TestEdgeValues(t *testing.T) {
	var zeroE, oneE, qm1 Element
	zeroE.SetZero()
	oneE.SetOne()
	qm1.SetBigInt(new(big.Int).Sub(qBig, big.NewInt(1)))

	var r Element
	if r.Add(&qm1, &oneE); !r.IsZero() {
		t.Fatal("(q-1)+1 != 0")
	}
	if r.Mul(&qm1, &qm1); !r.IsOne() {
		t.Fatal("(q-1)^2 != 1")
	}
	if r.Sub(&zeroE, &oneE); toBig(&r).Cmp(new(big.Int).Sub(qBig, big.NewInt(1))) != 0 {
		t.Fatal("0-1 != q-1")
	}
	if r.Neg(&zeroE); !r.IsZero() {
		t.Fatal("-0 != 0")
	}
	if r.Mul(&zeroE, &qm1); !r.IsZero() {
		t.Fatal("0*(q-1) != 0")
	}
}

func TestInverse(t *testing.T) {
	rng := NewRand(7)
	for i := 0; i < 100; i++ {
		a := rng.Element()
		if a.IsZero() {
			continue
		}
		var inv, prod Element
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatalf("a * a^-1 != 1 at %d", i)
		}
	}
	var z Element
	z.Inverse(&zero)
	if !z.IsZero() {
		t.Fatal("Inverse(0) should be 0")
	}
}

func TestBatchInvert(t *testing.T) {
	rng := NewRand(9)
	a := rng.Elements(65)
	a[3].SetZero()
	a[64].SetZero()
	want := make([]Element, len(a))
	for i := range a {
		want[i].Inverse(&a[i])
	}
	BatchInvert(a)
	for i := range a {
		if !a[i].Equal(&want[i]) {
			t.Fatalf("batch invert mismatch at %d", i)
		}
	}
}

func TestExp(t *testing.T) {
	rng := NewRand(11)
	a := rng.Element()
	// Fermat: a^(q-1) = 1
	var r Element
	r.Exp(&a, new(big.Int).Sub(qBig, big.NewInt(1)))
	if !r.IsOne() {
		t.Fatal("a^(q-1) != 1")
	}
	// a^5 via ExpUint64 vs chained muls
	var want Element
	want.SetOne()
	for i := 0; i < 5; i++ {
		want.Mul(&want, &a)
	}
	r.ExpUint64(&a, 5)
	if !r.Equal(&want) {
		t.Fatal("ExpUint64(5) mismatch")
	}
	r.Exp(&a, big.NewInt(0))
	if !r.IsOne() {
		t.Fatal("a^0 != 1")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := NewRand(13)
	for i := 0; i < 50; i++ {
		a := rng.Element()
		b := a.Bytes()
		var back Element
		if err := back.SetBytesCanonical(b[:]); err != nil {
			t.Fatalf("canonical decode failed: %v", err)
		}
		if !back.Equal(&a) {
			t.Fatal("bytes round trip mismatch")
		}
	}
	// Non-canonical: q itself must be rejected.
	qb := qBig.Bytes()
	pad := make([]byte, Bytes-len(qb))
	var e Element
	if err := e.SetBytesCanonical(append(pad, qb...)); err == nil {
		t.Fatal("SetBytesCanonical accepted the modulus")
	}
	zb := zero.Bytes()
	if !bytes.Equal(zb[:], make([]byte, 32)) {
		t.Fatal("zero encoding not all zero bytes")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	var e Element
	e.SetUint64(123456789)
	v, ok := e.Uint64()
	if !ok || v != 123456789 {
		t.Fatalf("Uint64 round trip: got %d ok=%v", v, ok)
	}
	e.SetBigInt(new(big.Int).Lsh(big.NewInt(1), 100))
	if _, ok := e.Uint64(); ok {
		t.Fatal("Uint64 should not fit for 2^100")
	}
	e.SetInt64(-1)
	var want Element
	want.SetOne()
	want.Neg(&want)
	if !e.Equal(&want) {
		t.Fatal("SetInt64(-1) != -1")
	}
}

func TestHalve(t *testing.T) {
	rng := NewRand(17)
	a := rng.Element()
	var h, back Element
	h.Halve(&a)
	back.Double(&h)
	if !back.Equal(&a) {
		t.Fatal("2*(a/2) != a")
	}
}

// quickElement adapts deterministic random elements to testing/quick.
type quickPair struct{ A, B Element }

func TestQuickAlgebra(t *testing.T) {
	rng := NewRand(99)
	gen := func() Element { return rng.Element() }

	commutAdd := func(_ int) bool {
		a, b := gen(), gen()
		var x, y Element
		x.Add(&a, &b)
		y.Add(&b, &a)
		return x.Equal(&y)
	}
	commutMul := func(_ int) bool {
		a, b := gen(), gen()
		var x, y Element
		x.Mul(&a, &b)
		y.Mul(&b, &a)
		return x.Equal(&y)
	}
	assocMul := func(_ int) bool {
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
		var bc, left, ab, ac, right Element
		bc.Add(&b, &c)
		left.Mul(&a, &bc)
		ab.Mul(&a, &b)
		ac.Mul(&a, &c)
		right.Add(&ab, &ac)
		return left.Equal(&right)
	}
	negInverse := func(_ int) bool {
		a := gen()
		var na, s Element
		na.Neg(&a)
		s.Add(&a, &na)
		return s.IsZero()
	}
	squareIsMul := func(_ int) bool {
		a := gen()
		var s, m Element
		s.Square(&a)
		m.Mul(&a, &a)
		return s.Equal(&m)
	}

	for name, prop := range map[string]func(int) bool{
		"add commutative": commutAdd,
		"mul commutative": commutMul,
		"mul associative": assocMul,
		"distributive":    distrib,
		"neg inverse":     negInverse,
		"square is mul":   squareIsMul,
	} {
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSparseElements(t *testing.T) {
	rng := NewRand(31)
	elems := rng.SparseElements(4096, 0.1)
	dense := 0
	for i := range elems {
		if !elems[i].IsZero() && !elems[i].IsOne() {
			dense++
		}
	}
	// Density should be around 10%.
	if dense < 250 || dense > 600 {
		t.Fatalf("dense count %d out of expected band for 10%% of 4096", dense)
	}
}

func TestEvalFromPoints(t *testing.T) {
	// p(x) = 3x^2 + 2x + 7, evals at 0,1,2
	coeff := func(x int64) Element {
		v := big.NewInt(x)
		v.Mul(v, v)
		v.Mul(v, big.NewInt(3))
		v.Add(v, big.NewInt(2*x))
		v.Add(v, big.NewInt(7))
		return fromBig(v)
	}
	evals := []Element{coeff(0), coeff(1), coeff(2)}
	// Evaluate at x=5
	var x Element
	x.SetUint64(5)
	got := EvalFromPoints(evals, &x)
	want := coeff(5)
	if !got.Equal(&want) {
		t.Fatalf("EvalFromPoints(5) = %s, want %s", got.String(), want.String())
	}
	// At a node
	x.SetUint64(1)
	got = EvalFromPoints(evals, &x)
	if !got.Equal(&evals[1]) {
		t.Fatal("EvalFromPoints at node mismatch")
	}
	// Random point, compare against big.Int evaluation.
	rng := NewRand(5)
	r := rng.Element()
	got = EvalFromPoints(evals, &r)
	rb := toBig(&r)
	wantB := new(big.Int).Mul(rb, rb)
	wantB.Mul(wantB, big.NewInt(3))
	tmp := new(big.Int).Mul(rb, big.NewInt(2))
	wantB.Add(wantB, tmp)
	wantB.Add(wantB, big.NewInt(7))
	wantB.Mod(wantB, qBig)
	if toBig(&got).Cmp(wantB) != 0 {
		t.Fatal("EvalFromPoints random point mismatch")
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := NewRand(1)
	x, y := rng.Element(), rng.Element()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Add(&x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	rng := NewRand(1)
	x := rng.Element()
	var out Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Inverse(&x)
	}
}

func BenchmarkBatchInvert(b *testing.B) {
	rng := NewRand(1)
	src := rng.Elements(1024)
	buf := make([]Element, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		BatchInvert(buf)
	}
}
