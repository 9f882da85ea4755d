package ff

import (
	"math/big"
	"slices"
	"testing"

	"zkphire/internal/cpu/cputest"
)

// edgeElements returns the values most likely to trip carry chains: 0, 1,
// q−1, q−2, 1/2, and saturated-limb patterns.
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

// TestFoldVecMatchesNaive folds tables of m = 0–17, 64, 65 and 512 pairs
// (whole lane groups, partial ones, and more than one pass) on both Lanes
// bodies, out of place and in place, against Element arithmetic.
func TestFoldVecMatchesNaive(t *testing.T) {
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := NewRand(23)
		sizes := []int{64, 65, 512}
		for m := 0; m <= 17; m++ {
			sizes = append(sizes, m)
		}
		for _, m := range sizes {
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
				dst := make([]Element, m+1)
				sentinel := NewElement(0xdead)
				dst[m] = sentinel
				FoldVec(dst[:m], src, &r)
				for j := range want {
					if !dst[j].Equal(&want[j]) {
						t.Fatalf("FoldVec entry %d mismatch (m=%d)", j, m)
					}
				}
				if !dst[m].Equal(&sentinel) {
					t.Fatalf("FoldVec wrote past dst (m=%d)", m)
				}
				// Aliased in-place fold (dst = first half of src).
				inPlace := append([]Element(nil), src...)
				FoldVec(inPlace[:m], inPlace, &r)
				for j := 0; j < m; j++ {
					if !inPlace[j].Equal(&want[j]) {
						t.Fatalf("aliased FoldVec entry %d mismatch (m=%d)", j, m)
					}
				}
				if !slices.Equal(inPlace[m:], src[m:]) {
					t.Fatalf("aliased FoldVec wrote past dst (m=%d)", m)
				}
			}
		}
	})
}

// TestBatchInvertScratchMatchesBatchInvert runs BatchInvertScratch on a
// reused buffer, longer than a and full of stale values, against
// BatchInvert's fresh one (TestBatchInvert checks that against Inverse).
func TestBatchInvertScratchMatchesBatchInvert(t *testing.T) {
	rng := NewRand(26)
	a := rng.Elements(257)
	a[0].SetZero()
	a[100].SetZero()
	b := append([]Element(nil), a...)
	scratch := rng.Elements(len(a) + 3)
	BatchInvert(a)
	BatchInvertScratch(b, scratch)
	for i := range a {
		if !a[i].Equal(&b[i]) {
			t.Fatalf("BatchInvertScratch entry %d mismatch", i)
		}
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
