package fp

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// pMinus2 is Fermat's inversion exponent, the reference's.
var pMinus2 = func() *big.Int {
	pm, _ := new(big.Int).SetString(modulusHex, 16)
	return pm.Sub(pm, big.NewInt(2))
}()

// checkInverse holds Inverse to Exp(p−2) and, for x ≠ 0, to x·x⁻¹ = 1.
func checkInverse(t testing.TB, x *Element) {
	t.Helper()
	var got, want Element
	got.Inverse(x)
	want.Exp(x, pMinus2)
	if !got.Equal(&want) {
		t.Fatalf("Inverse(%x) = %x, Exp(p−2) gives %x", *x, got, want)
	}
	if !smallerThanP(&got) {
		t.Fatalf("Inverse(%x) = %x is not canonical", *x, got)
	}
	if !x.IsZero() {
		if prod := *new(Element).Mul(x, &got); !prod.IsOne() {
			t.Fatalf("x·Inverse(x) ≠ 1 for %x", *x)
		}
	}
}

// TestInverse: the binary GCD agrees with Fermat inversion, and x·x⁻¹ = 1,
// on the edge values — 0 (whose inverse is 0), 1, p−1, every power of two
// below p, R mod p as a value, the multiplication kernels' raw limb
// patterns — and on random elements.
func TestInverse(t *testing.T) {
	var xs []Element
	var e Element
	pm1 := new(big.Int).Sub(pBig, big.NewInt(1))
	rModP := new(big.Int).Lsh(big.NewInt(1), 64*Limbs)
	xs = append(xs, Zero(), One(), *e.SetBigInt(pm1), *e.SetBigInt(rModP.Mod(rModP, pBig)))
	for i := 0; i < pBig.BitLen(); i++ {
		xs = append(xs, *e.SetBigInt(new(big.Int).Lsh(big.NewInt(1), uint(i))))
	}
	xs = append(xs, edgeElements()...)
	rng := rand.New(rand.NewSource(36))
	for range 2000 {
		xs = append(xs, randRaw(rng))
	}
	for i := range xs {
		checkInverse(t, &xs[i])
	}
}

// FuzzInverse: Inverse agrees with Exp(p−2) on any 48 bytes, read as raw
// limbs and reduced below p.
func FuzzInverse(f *testing.F) {
	f.Add(make([]byte, Bytes))
	pm1 := p
	pm1[0]--
	for _, x := range []Element{{1}, one, pm1} {
		var b [Bytes]byte
		for i, l := range x {
			binary.LittleEndian.PutUint64(b[8*i:], l)
		}
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [Bytes]byte
		copy(b[:], data)
		var x Element
		for i := range x {
			x[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		reduceRaw(&x)
		checkInverse(t, &x)
	})
}

// BenchmarkInverse times the binary GCD beside the Fermat exponentiation
// it replaced.
func BenchmarkInverse(b *testing.B) {
	x := randRaw(rand.New(rand.NewSource(1)))
	var z Element
	b.Run("gcd", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			z.Inverse(&x)
		}
	})
	b.Run("exp", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			z.Exp(&x, pMinus2)
		}
	})
}
