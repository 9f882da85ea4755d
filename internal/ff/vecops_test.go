package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// naiveSum / naiveInner are the pre-lazy reference chains the batch kernels
// must match bit-for-bit (both sides are fully reduced, so field equality is
// limb equality).
func naiveSum(v []Element) Element {
	var s Element
	for i := range v {
		s.Add(&s, &v[i])
	}
	return s
}

func naiveInner(a, b []Element) Element {
	var s, t Element
	for i := range a {
		t.Mul(&a[i], &b[i])
		s.Add(&s, &t)
	}
	return s
}

// edgeElements returns the values most likely to trip unreduced accumulator
// carry chains: 0, 1, q−1, q−2, 1/2, and saturated-limb patterns.
func edgeElements() []Element {
	var out []Element
	var e Element
	out = append(out, *e.SetZero())
	out = append(out, *e.SetOne())
	out = append(out, *e.SetBigInt(new(big.Int).Sub(qBig, big.NewInt(1))))
	out = append(out, *e.SetBigInt(new(big.Int).Sub(qBig, big.NewInt(2))))
	out = append(out, TwoInv())
	out = append(out, *e.SetBigInt(new(big.Int).Rsh(qBig, 1)))
	return out
}

func TestSumVecMatchesNaive(t *testing.T) {
	rng := NewRand(21)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4097} {
		v := rng.Elements(n)
		// Splice edge values in so the 5th-limb carry path is exercised.
		for i, e := range edgeElements() {
			if i < len(v) {
				v[i] = e
			}
		}
		got, want := SumVec(v), naiveSum(v)
		if !got.Equal(&want) {
			t.Fatalf("SumVec(%d) = %s, want %s", n, got.String(), want.String())
		}
	}
	// All-(q−1) vector: maximal per-element magnitude.
	var max Element
	max.SetBigInt(new(big.Int).Sub(qBig, big.NewInt(1)))
	v := make([]Element, 5000)
	for i := range v {
		v[i] = max
	}
	got, want := SumVec(v), naiveSum(v)
	if !got.Equal(&want) {
		t.Fatal("SumVec saturated vector mismatch")
	}
}

func TestInnerProductVecMatchesNaive(t *testing.T) {
	rng := NewRand(22)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4097} {
		a, b := rng.Elements(n), rng.Elements(n)
		for i, e := range edgeElements() {
			if i < len(a) {
				a[i] = e
			}
			if i+1 < len(b) {
				b[i+1] = e
			}
		}
		got, want := InnerProductVec(a, b), naiveInner(a, b)
		if !got.Equal(&want) {
			t.Fatalf("InnerProductVec(%d) mismatch", n)
		}
	}
	var max Element
	max.SetBigInt(new(big.Int).Sub(qBig, big.NewInt(1)))
	a := make([]Element, 3000)
	for i := range a {
		a[i] = max
	}
	got, want := InnerProductVec(a, a), naiveInner(a, a)
	if !got.Equal(&want) {
		t.Fatal("InnerProductVec saturated mismatch")
	}
}

func TestFoldVecMatchesNaive(t *testing.T) {
	rng := NewRand(23)
	for _, m := range []int{1, 2, 5, 8, 9, 65, 512} {
		src := rng.Elements(2 * m)
		for i, e := range edgeElements() {
			if i < len(src) {
				src[i] = e
			}
		}
		for _, r := range append(edgeElements(), rng.Element()) {
			want := make([]Element, m)
			var diff Element
			for j := 0; j < m; j++ {
				a0 := src[2*j]
				diff.Sub(&src[2*j+1], &a0)
				diff.Mul(&diff, &r)
				want[j].Add(&a0, &diff)
			}
			dst := make([]Element, m)
			FoldVec(dst, src, &r)
			for j := range dst {
				if !dst[j].Equal(&want[j]) {
					t.Fatalf("FoldVec entry %d mismatch (m=%d)", j, m)
				}
			}
			// Aliased in-place fold (dst = first half of src).
			inPlace := append([]Element(nil), src...)
			FoldVec(inPlace[:m], inPlace, &r)
			for j := 0; j < m; j++ {
				if !inPlace[j].Equal(&want[j]) {
					t.Fatalf("aliased FoldVec entry %d mismatch (m=%d)", j, m)
				}
			}
		}
	}
}

func TestLazyAccMatchesNaive(t *testing.T) {
	rng := NewRand(25)
	for _, n := range []int{1, 2, 7, 33} {
		a, b := rng.Elements(n), rng.Elements(n)
		var acc LazyAcc
		for i := range a {
			acc.MulAcc(&a[i], &b[i])
		}
		got := acc.Reduce()
		want := naiveInner(a, b)
		if !got.Equal(&want) {
			t.Fatalf("LazyAcc(%d) mismatch", n)
		}
	}
}

func TestBatchInvertScratchMatchesBatchInvert(t *testing.T) {
	rng := NewRand(26)
	a := rng.Elements(257)
	a[0].SetZero()
	a[100].SetZero()
	b := append([]Element(nil), a...)
	scratch := make([]Element, len(a))
	BatchInvert(a)
	BatchInvertScratch(b, scratch)
	for i := range a {
		if !a[i].Equal(&b[i]) {
			t.Fatalf("BatchInvertScratch entry %d mismatch", i)
		}
	}
}

// TestMulAddRedRandomBig drives the fused multiply-add against big.Int over
// random and adversarial operands, hammering the top-bit carry-out path.
func TestMulAddRedRandomBig(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	randBig := func() *big.Int {
		buf := make([]byte, 40)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		v := new(big.Int).SetBytes(buf)
		return v.Mod(v, qBig)
	}
	qm1 := new(big.Int).Sub(qBig, big.NewInt(1))
	cases := [][3]*big.Int{
		{qm1, qm1, qm1},
		{qm1, qm1, big.NewInt(0)},
		{big.NewInt(0), big.NewInt(0), qm1},
		{big.NewInt(1), qm1, qm1},
	}
	for i := 0; i < 500; i++ {
		cases = append(cases, [3]*big.Int{randBig(), randBig(), randBig()})
	}
	for i, tc := range cases {
		var x, y, add Element
		x.SetBigInt(tc[0])
		y.SetBigInt(tc[1])
		add.SetBigInt(tc[2])
		got := mulAddRed(&x, &y, &add)
		var want Element
		want.Mul(&x, &y)
		want.Add(&want, &add)
		if !got.Equal(&want) {
			t.Fatalf("mulAddRed case %d mismatch", i)
		}
	}
}

func BenchmarkInnerProductVec(b *testing.B) {
	rng := NewRand(9)
	u, v := rng.Elements(1<<12), rng.Elements(1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InnerProductVec(u, v)
	}
}

func BenchmarkInnerProductNaive(b *testing.B) {
	rng := NewRand(9)
	u, v := rng.Elements(1<<12), rng.Elements(1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveInner(u, v)
	}
}

func BenchmarkFoldVec(b *testing.B) {
	rng := NewRand(9)
	src := rng.Elements(1 << 13)
	dst := make([]Element, 1<<12)
	r := rng.Element()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FoldVec(dst, src, &r)
	}
}
