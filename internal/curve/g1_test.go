package curve

import (
	"encoding/hex"
	"errors"
	"math/big"
	"strings"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
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

// onCurvePoints returns the first n points of E(Fp) with x = 1, 2, …
// (y = Sqrt(x³ + 4)). Nearly all of them lie outside G1 (the cofactor is
// ≈ 2^125).
func onCurvePoints(n int) []G1Affine {
	var out []G1Affine
	for x := uint64(1); len(out) < n; x++ {
		var p G1Affine
		p.X.SetUint64(x)
		var rhs fp.Element
		rhs.Square(&p.X)
		rhs.Mul(&rhs, &p.X)
		rhs.Add(&rhs, &bCoeff)
		if p.Y.Sqrt(&rhs) {
			out = append(out, p)
		}
	}
	return out
}

// TestIsInSubgroup checks the φ test against [r]P = O, the definition, on
// arbitrary on-curve points, on the same points with the cofactor cleared,
// and on multiples of G. The test's premise is that ff's λ is the integer
// z² − 1.
func TestIsInSubgroup(t *testing.T) {
	z, _ := new(big.Int).SetString("d201000000010000", 16)
	zz := new(big.Int).Mul(z, z)
	if zz.Sub(zz, big.NewInt(1)); zz.Cmp(ff.Lambda()) != 0 {
		t.Fatalf("λ = %x, want z² − 1", ff.Lambda())
	}
	// The G1 cofactor h = (z − 1)²/3 for z = −0xd201000000010000.
	h := new(big.Int).Add(z, big.NewInt(1))
	h.Mul(h, h)
	h.Div(h, big.NewInt(3))
	var pts []G1Affine
	outside := 0
	for _, p := range onCurvePoints(8) {
		var pj, hp G1Jac
		pj.FromAffine(&p)
		hp.ScalarMulBig(&pj, h)
		var cleared G1Affine
		cleared.FromJacobian(&hp)
		pts = append(pts, p, cleared)
	}
	rng := ff.NewRand(37)
	g := GeneratorJac()
	for i := 0; i < 4; i++ {
		k := rng.Element()
		var kg G1Jac
		kg.ScalarMul(&g, &k)
		var a G1Affine
		pts = append(pts, *a.FromJacobian(&kg))
	}
	for i, p := range pts {
		var pj, rp G1Jac
		pj.FromAffine(&p)
		rp.ScalarMulBig(&pj, ff.Modulus())
		in := p.IsInSubgroup()
		if in != rp.IsInfinity() {
			t.Fatalf("point %d: IsInSubgroup = %v, [r]P = O is %v", i, in, !in)
		}
		if !in {
			outside++
		}
	}
	if outside < 4 {
		t.Fatalf("only %d of the sampled points lie outside G1; the test lost its negatives", outside)
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
	affs := BatchFromJacobianWorkers(jacs, 0)
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
	return BatchFromJacobianWorkers(jacs, 0)
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

// TestPairSumsWorkers checks adjacent-pair sums against Jacobian addition,
// with identity operands, doubling and cancelling pairs, at two budgets.
func TestPairSumsWorkers(t *testing.T) {
	pts := randomPoints(ff.NewRand(13), 300)
	var inf, neg G1Affine
	inf.SetInfinity()
	neg.Neg(&pts[1])
	pts = append(pts, inf, inf, inf, pts[0], pts[0], inf, pts[0], pts[0], pts[1], neg)
	want := make([]G1Affine, len(pts)/2)
	for i := range want {
		var a, b G1Jac
		a.FromAffine(&pts[2*i])
		b.FromAffine(&pts[2*i+1])
		a.AddAssign(&b)
		want[i].FromJacobian(&a)
	}
	for _, workers := range []int{1, 3} {
		got := PairSumsWorkers(pts, workers)
		for i := range want {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("workers=%d: sum %d wrong", workers, i)
			}
		}
	}
}

// TestCompressedKnownAnswers pins the ZCash/IETF encoding of the standard
// generator, its negation and the identity.
func TestCompressedKnownAnswers(t *testing.T) {
	const gHex = "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"
	g := Generator()
	var neg, inf G1Affine
	neg.Neg(&g)
	inf.SetInfinity()
	for _, tc := range []struct {
		name string
		p    G1Affine
		want string
	}{
		{"generator", g, gHex},
		{"-generator", neg, "b7" + gHex[2:]},
		{"infinity", inf, "c0" + strings.Repeat("00", CompressedSize-1)},
	} {
		b := tc.p.Compressed()
		if got := hex.EncodeToString(b[:]); got != tc.want {
			t.Fatalf("%s compresses to\n%s\nwant\n%s", tc.name, got, tc.want)
		}
		var back G1Affine
		if err := back.SetCompressed(b[:]); err != nil || !back.Equal(&tc.p) {
			t.Fatalf("%s: SetCompressed = %v, equal %v", tc.name, err, back.Equal(&tc.p))
		}
	}
}

// TestCompressedRoundTrip decodes the encoding of multiples of G and of
// on-curve points outside G1 (the codec does not check the subgroup), with
// both signs of y.
func TestCompressedRoundTrip(t *testing.T) {
	pts := onCurvePoints(8)
	rng := ff.NewRand(41)
	g := GeneratorJac()
	for i := 0; i < 8; i++ {
		k := rng.Element()
		var kg G1Jac
		kg.ScalarMul(&g, &k)
		var a G1Affine
		pts = append(pts, *a.FromJacobian(&kg))
	}
	signs := 0
	for i := range pts {
		var neg G1Affine
		for _, p := range []G1Affine{pts[i], *neg.Neg(&pts[i])} {
			b := p.Compressed()
			if b[0]&flagLargerY != 0 {
				signs++
			}
			var back G1Affine
			if err := back.SetCompressed(b[:]); err != nil {
				t.Fatalf("point %d: %v", i, err)
			}
			if !back.Equal(&p) {
				t.Fatalf("point %d decoded to a different point", i)
			}
		}
	}
	if signs != len(pts) {
		t.Fatalf("%d of %d encodings carry the sign flag, want exactly half", signs, 2*len(pts))
	}
}

// TestSetCompressedRejects covers the rejections a proof decoder cannot
// reach or does not tell apart; the hyperplonk decoder's table has the rest
// (flags, infinity payloads, x = p, no square root, outside G1).
func TestSetCompressedRejects(t *testing.T) {
	g := Generator()
	gb := g.Compressed()
	// x = p + x₀ for an on-curve x₀: it reduces to a valid x, so only the
	// range check can reject it.
	var x0 big.Int
	onCurvePoints(1)[0].X.BigInt(&x0)
	xp := x0.Add(&x0, fp.Modulus()).FillBytes(make([]byte, CompressedSize))
	xp[0] |= flagCompressed
	infOnPoint := gb
	infOnPoint[0] |= flagInfinity
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", gb[:CompressedSize-1]},
		{"long", append(gb[:], 0)},
		{"infinity flag on a point", infOnPoint[:]},
		{"x = p + x0", xp},
	} {
		var p G1Affine
		if err := p.SetCompressed(tc.b); !errors.Is(err, ErrInvalidEncoding) {
			t.Errorf("%s: SetCompressed = %v, want ErrInvalidEncoding", tc.name, err)
		}
	}
}
