package curve

import (
	"testing"

	"zkphire/internal/ff"
)

func TestGeneratorOnCurve(t *testing.T) {
	g := Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator not on curve")
	}
}

func TestGroupOrder(t *testing.T) {
	// q·G must be the identity (G generates the prime-order subgroup).
	g := GeneratorJac()
	var p G1Jac
	p.ScalarMulBig(&g, ff.Modulus())
	if !p.IsInfinity() {
		t.Fatal("q·G != identity")
	}
}

func TestDoubleVsAdd(t *testing.T) {
	g := GeneratorJac()
	var d, s G1Jac
	d.Double(&g)
	s.Set(&g)
	s.AddAssign(&g)
	if !d.Equal(&s) {
		t.Fatal("2G != G+G")
	}
}

func TestAddAssociativityAndIdentity(t *testing.T) {
	g := GeneratorJac()
	var g2, g3a, g3b G1Jac
	g2.Double(&g)
	g3a.Set(&g2)
	g3a.AddAssign(&g) // (2G) + G
	g3b.Set(&g)
	g3b.AddAssign(&g2) // G + (2G)
	if !g3a.Equal(&g3b) {
		t.Fatal("addition not commutative")
	}
	var inf G1Jac
	inf.SetInfinity()
	var r G1Jac
	r.Set(&g)
	r.AddAssign(&inf)
	if !r.Equal(&g) {
		t.Fatal("G + 0 != G")
	}
	var ng G1Jac
	ng.Neg(&g)
	r.Set(&g)
	r.AddAssign(&ng)
	if !r.IsInfinity() {
		t.Fatal("G + (-G) != 0")
	}
}

func TestMixedAdd(t *testing.T) {
	g := GeneratorJac()
	ga := Generator()
	var viaJac, viaMixed G1Jac
	viaJac.Double(&g)
	viaJac.AddAssign(&g) // 3G

	viaMixed.Double(&g)
	viaMixed.AddMixed(&ga)
	if !viaJac.Equal(&viaMixed) {
		t.Fatal("mixed add disagrees with Jacobian add")
	}

	// Mixed doubling case: P + P with P affine.
	var dbl G1Jac
	dbl.Set(&g)
	dbl.AddMixed(&ga)
	var want G1Jac
	want.Double(&g)
	if !dbl.Equal(&want) {
		t.Fatal("mixed add doubling case wrong")
	}
}

func TestScalarMulSmall(t *testing.T) {
	g := GeneratorJac()
	// 5G by repeated addition.
	var want G1Jac
	want.SetInfinity()
	for i := 0; i < 5; i++ {
		want.AddAssign(&g)
	}
	var k ff.Element
	k.SetUint64(5)
	var got G1Jac
	got.ScalarMul(&g, &k)
	if !got.Equal(&want) {
		t.Fatal("5·G mismatch")
	}
	// 0·G
	k.SetZero()
	got.ScalarMul(&g, &k)
	if !got.IsInfinity() {
		t.Fatal("0·G != identity")
	}
}

func TestScalarMulHomomorphic(t *testing.T) {
	rng := ff.NewRand(3)
	g := GeneratorJac()
	a, b := rng.Element(), rng.Element()
	var sum ff.Element
	sum.Add(&a, &b)

	var pa, pb, pab, want G1Jac
	pa.ScalarMul(&g, &a)
	pb.ScalarMul(&g, &b)
	pab.ScalarMul(&g, &sum)
	want.Set(&pa)
	want.AddAssign(&pb)
	if !pab.Equal(&want) {
		t.Fatal("(a+b)·G != a·G + b·G")
	}
}

func TestAffineRoundTrip(t *testing.T) {
	rng := ff.NewRand(4)
	g := GeneratorJac()
	k := rng.Element()
	var p G1Jac
	p.ScalarMul(&g, &k)
	var aff G1Affine
	aff.FromJacobian(&p)
	if !aff.IsOnCurve() {
		t.Fatal("converted point off curve")
	}
	var back G1Jac
	back.FromAffine(&aff)
	if !back.Equal(&p) {
		t.Fatal("affine round trip mismatch")
	}
}

func TestBatchFromJacobian(t *testing.T) {
	rng := ff.NewRand(5)
	g := GeneratorJac()
	n := 17
	jacs := make([]G1Jac, n)
	for i := range jacs {
		k := rng.Element()
		jacs[i].ScalarMul(&g, &k)
	}
	jacs[7].SetInfinity()
	affs := BatchFromJacobian(jacs)
	for i := range affs {
		var single G1Affine
		single.FromJacobian(&jacs[i])
		if !affs[i].Equal(&single) {
			t.Fatalf("batch conversion mismatch at %d", i)
		}
	}
}

func randomPoints(rng *ff.Rand, n int) []G1Affine {
	g := GeneratorJac()
	jacs := make([]G1Jac, n)
	for i := range jacs {
		k := rng.Element()
		jacs[i].ScalarMul(&g, &k)
	}
	return BatchFromJacobian(jacs)
}

func TestMSMAgainstNaive(t *testing.T) {
	rng := ff.NewRand(6)
	for _, n := range []int{1, 2, 3, 17, 64, 200} {
		points := randomPoints(rng, n)
		scalars := rng.Elements(n)
		got := MSM(points, scalars)
		want := MSMNaive(points, scalars)
		if !got.Equal(&want) {
			t.Fatalf("MSM mismatch at n=%d", n)
		}
	}
}

func TestMSMEdgeCases(t *testing.T) {
	var empty G1Jac
	empty = MSM(nil, nil)
	if !empty.IsInfinity() {
		t.Fatal("empty MSM should be identity")
	}
	rng := ff.NewRand(7)
	points := randomPoints(rng, 8)
	scalars := make([]ff.Element, 8) // all zero
	res := MSM(points, scalars)
	if !res.IsInfinity() {
		t.Fatal("all-zero-scalar MSM should be identity")
	}
}

func TestExtractDigit(t *testing.T) {
	words := [4]uint64{0x7766554433221100, 0xffeeddccbbaa9988, 0, 0}
	if got := extractDigit(&words, 0, 8); got != 0x00 {
		t.Fatalf("digit 0 = %x", got)
	}
	if got := extractDigit(&words, 8, 8); got != 0x11 {
		t.Fatalf("digit 1 = %x", got)
	}
	// Straddles the 64-bit word boundary.
	if got := extractDigit(&words, 60, 8); got != 0x87 {
		t.Fatalf("straddle digit = %x", got)
	}
	if got := extractDigit(&words, 200, 8); got != 0 {
		t.Fatalf("out of range digit = %x", got)
	}
}

func BenchmarkMSM1024(b *testing.B) {
	rng := ff.NewRand(9)
	points := randomPoints(rng, 1024)
	scalars := rng.Elements(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MSM(points, scalars)
	}
}

func BenchmarkPointAdd(b *testing.B) {
	g := GeneratorJac()
	var p G1Jac
	p.Double(&g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddAssign(&g)
	}
}

func BenchmarkMixedAdd(b *testing.B) {
	ga := Generator()
	g := GeneratorJac()
	var p G1Jac
	p.Double(&g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddMixed(&ga)
	}
}

func TestScalarMulDistributivity(t *testing.T) {
	// k·(P+Q) == k·P + k·Q for random points and scalars.
	rng := ff.NewRand(11)
	g := GeneratorJac()
	for trial := 0; trial < 5; trial++ {
		a, b, k := rng.Element(), rng.Element(), rng.Element()
		var p, q, sum, left, kp, kq, right G1Jac
		p.ScalarMul(&g, &a)
		q.ScalarMul(&g, &b)
		sum.Set(&p)
		sum.AddAssign(&q)
		left.ScalarMul(&sum, &k)
		kp.ScalarMul(&p, &k)
		kq.ScalarMul(&q, &k)
		right.Set(&kp)
		right.AddAssign(&kq)
		if !left.Equal(&right) {
			t.Fatal("scalar multiplication not distributive over addition")
		}
	}
}

func TestFixedBaseMatchesScalarMul(t *testing.T) {
	rng := ff.NewRand(12)
	g := Generator()
	gj := GeneratorJac()
	table := NewFixedBaseTable(g, 8)
	for trial := 0; trial < 10; trial++ {
		k := rng.Element()
		got := table.Mul(&k)
		var want G1Jac
		want.ScalarMul(&gj, &k)
		if !got.Equal(&want) {
			t.Fatal("fixed-base table disagrees with scalar multiplication")
		}
	}
	// Zero scalar.
	z := ff.Zero()
	got := table.Mul(&z)
	if !got.IsInfinity() {
		t.Fatal("0·G != identity via fixed base")
	}
}
