package ff

// Differential and fuzz coverage for the unrolled scalar-field arithmetic
// against a big.Int reference model, mirroring fp/element_test.go. The
// adversarial seeds hammer the values most likely to trip the carry chains:
// 0, 1, r−1, values with saturated limbs, and byte strings at or above the
// modulus (2^256−1 pre-reduction).

import (
	"math/big"
	"math/rand"
	"testing"
)

func ffRandBig(rng *rand.Rand) *big.Int {
	buf := make([]byte, 48)
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	v := new(big.Int).SetBytes(buf)
	return v.Mod(v, qBig)
}

func ffToBig(e *Element) *big.Int {
	var v big.Int
	e.BigInt(&v)
	return &v
}

// adversarialBigs are the pre-reduction edge encodings: 0, 1, r−1, r, r+1,
// 2^255, 2^256−1 — everything a malicious or unlucky serializer could feed
// SetBigInt before the arithmetic sees it.
func adversarialBigs() []*big.Int {
	ff := new(big.Int).Lsh(big.NewInt(1), 256)
	ff.Sub(ff, big.NewInt(1)) // 2^256 − 1
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(qBig, big.NewInt(1)),
		new(big.Int).Set(qBig),
		new(big.Int).Add(qBig, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 255),
		ff,
	}
}

func TestUnrolledArithmeticAdversarial(t *testing.T) {
	edges := adversarialBigs()
	rng := rand.New(rand.NewSource(31))
	var pairs [][2]*big.Int
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]*big.Int{a, b})
		}
	}
	for i := 0; i < 300; i++ {
		pairs = append(pairs, [2]*big.Int{ffRandBig(rng), ffRandBig(rng)})
	}
	for i, pr := range pairs {
		var a, b Element
		a.SetBigInt(pr[0])
		b.SetBigInt(pr[1])
		am, bm := new(big.Int).Mod(pr[0], qBig), new(big.Int).Mod(pr[1], qBig)

		check := func(name string, got *Element, want *big.Int) {
			w := new(big.Int).Mod(want, qBig)
			if ffToBig(got).Cmp(w) != 0 {
				t.Fatalf("%s mismatch at case %d", name, i)
			}
		}
		var sum, diff, prod, sq, neg, dbl Element
		sum.Add(&a, &b)
		diff.Sub(&a, &b)
		prod.Mul(&a, &b)
		sq.Square(&a)
		neg.Neg(&a)
		dbl.Double(&a)
		check("add", &sum, new(big.Int).Add(am, bm))
		check("sub", &diff, new(big.Int).Sub(am, bm))
		check("mul", &prod, new(big.Int).Mul(am, bm))
		check("square", &sq, new(big.Int).Mul(am, am))
		check("neg", &neg, new(big.Int).Neg(am))
		check("double", &dbl, new(big.Int).Add(am, am))
	}
}

// TestSquareMatchesMul pins Square to the math/big Montgomery product,
// including the aliased z.Square(&z) path.
func TestSquareMatchesMul(t *testing.T) {
	check := func(x *Element) {
		var got Element
		want := montMulBig(x, x)
		got.Square(x)
		if !want.Equal(&got) {
			t.Fatalf("Square mismatch for %s", x.String())
		}
	}
	var e Element
	check(e.SetZero())
	check(e.SetOne())
	for _, v := range adversarialBigs() {
		check(e.SetBigInt(v))
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		e.SetBigInt(ffRandBig(rng))
		check(&e)
		var alias Element
		alias.Set(&e)
		alias.Square(&alias)
		if want := montMulBig(&e, &e); !alias.Equal(&want) {
			t.Fatalf("aliased Square mismatch at %d", i)
		}
	}
}

func fuzzSeedBytes() [][]byte {
	seeds := [][]byte{make([]byte, 64)}
	for _, v := range adversarialBigs() {
		var buf [64]byte
		v.FillBytes(buf[:32])
		seeds = append(seeds, append([]byte(nil), buf[:]...))
		// And the same edge in the second operand.
		var buf2 [64]byte
		v.FillBytes(buf2[32:])
		seeds = append(seeds, append([]byte(nil), buf2[:]...))
	}
	sat := make([]byte, 64)
	for i := range sat {
		sat[i] = 0xff
	}
	seeds = append(seeds, sat)
	return seeds
}

// FuzzFFMul feeds arbitrary 64-byte strings (split into two operands, each
// reduced mod r) through the unrolled Montgomery multiplication and checks
// it against big.Int, along with commutativity and the distributive law.
func FuzzFFMul(f *testing.F) {
	for _, s := range fuzzSeedBytes() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		av := new(big.Int).SetBytes(data[:32])
		bv := new(big.Int).SetBytes(data[32:64])
		var a, b Element
		a.SetBigInt(av)
		b.SetBigInt(bv)

		var ab, ba Element
		ab.Mul(&a, &b)
		ba.Mul(&b, &a)
		if !ab.Equal(&ba) {
			t.Fatal("Mul not commutative")
		}
		want := new(big.Int).Mul(new(big.Int).Mod(av, qBig), new(big.Int).Mod(bv, qBig))
		want.Mod(want, qBig)
		if ffToBig(&ab).Cmp(want) != 0 {
			t.Fatalf("Mul disagrees with big.Int for %x", data[:64])
		}

		// (a+b)·a = a·a + b·a exercises Add, Square-shaped products and Mul
		// together.
		var s, l, aa, r Element
		s.Add(&a, &b)
		l.Mul(&s, &a)
		aa.Square(&a)
		r.Add(&aa, &ab)
		if !l.Equal(&r) {
			t.Fatal("distributive law violated")
		}
	})
}

// FuzzFFSquare checks the SOS squaring against both Mul(x, x) and big.Int.
func FuzzFFSquare(f *testing.F) {
	for _, s := range fuzzSeedBytes() {
		f.Add(s[:32])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 {
			return
		}
		v := new(big.Int).SetBytes(data[:32])
		var x Element
		x.SetBigInt(v)
		var sq, mm Element
		sq.Square(&x)
		mm.Mul(&x, &x)
		if !sq.Equal(&mm) {
			t.Fatalf("Square != Mul(x,x) for %x", data[:32])
		}
		want := new(big.Int).Mod(v, qBig)
		want.Mul(want, want)
		want.Mod(want, qBig)
		if ffToBig(&sq).Cmp(want) != 0 {
			t.Fatalf("Square disagrees with big.Int for %x", data[:32])
		}
	})
}
