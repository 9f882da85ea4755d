package curve

import (
	"math/big"
	"runtime"
	"testing"

	"zkphire/internal/ff"
)

// Mul returns k·base with one Jacobian mixed addition per non-zero window
// digit: the per-scalar oracle for MulManyWorkers' affine lanes.
func (t *FixedBaseTable) Mul(k *ff.Element) G1Jac {
	var acc G1Jac
	acc.SetInfinity()
	limbs := k.Regular()
	for w := range t.entries {
		d := extractDigit(&limbs, w*t.window, t.window)
		if d == 0 {
			continue
		}
		acc.AddMixed(&t.entries[w][d-1])
	}
	return acc
}

// edgeScalars returns 0, 1, r−1, then 2^(w·window) and the largest digit
// alone in every window w that stays below r (r−1 carries the top
// window's largest reachable digit), then n random scalars.
func edgeScalars(window, n int) []ff.Element {
	r := ff.Modulus()
	one := big.NewInt(1)
	vals := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(r, one)}
	maxDigit := big.NewInt(1<<uint(window) - 1)
	for bit := uint(0); bit < 255; bit += uint(window) {
		vals = append(vals, new(big.Int).Lsh(one, bit))
		if v := new(big.Int).Lsh(maxDigit, bit); v.Cmp(r) < 0 {
			vals = append(vals, v)
		}
	}
	ks := make([]ff.Element, len(vals), len(vals)+n)
	for i, v := range vals {
		ks[i].SetBigInt(v)
	}
	return append(ks, ff.NewRand(41).Elements(n)...)
}

// TestMulManyWorkers checks the affine lanes against the per-scalar
// Jacobian Mul on edge and random scalars, at several budgets and at a
// length that splits one budget's work into several lane batches.
func TestMulManyWorkers(t *testing.T) {
	for _, window := range []int{5, 8} {
		table := NewFixedBaseTable(Generator(), window)
		ks := edgeScalars(window, fixedBaseBatch+300)
		want := make([]G1Affine, len(ks))
		for i := range ks {
			j := table.Mul(&ks[i])
			want[i].FromJacobian(&j)
		}
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			got := table.MulManyWorkers(ks, workers)
			for i := range want {
				if !got[i].Equal(&want[i]) {
					t.Fatalf("window=%d workers=%d: scalar %d (%s) disagrees with Mul", window, workers, i, ks[i].String())
				}
			}
		}
		if !table.MulManyWorkers(ks[:1], 1)[0].Infinity {
			t.Fatalf("window=%d: 0·G is not the identity", window)
		}
	}
}

// TestAddDirect drives the lanes that take no chord slope: an identity
// accumulator takes the entry, and an accumulator sharing the entry's x
// doubles (acc = entry) or empties (acc = −entry). Reduced scalars
// essentially never reach the shared-x lane, so it is driven here.
func TestAddDirect(t *testing.T) {
	table := NewFixedBaseTable(Generator(), 4)
	q := table.entries[3][6]
	var qJ, twoQ G1Jac
	qJ.FromAffine(&q)
	twoQ.Double(&qJ)
	var want G1Affine
	want.FromJacobian(&twoQ)

	var p G1Affine
	p.SetInfinity()
	if !addDirect(&p, &q) || !p.Equal(&q) {
		t.Fatal("identity + q != q")
	}
	if !addDirect(&p, &q) || !p.Equal(&want) {
		t.Fatal("q + q != 2q")
	}
	p.Neg(&q)
	if !addDirect(&p, &q) || !p.Infinity {
		t.Fatal("−q + q is not the identity")
	}
	p = table.entries[0][0]
	before := p
	if addDirect(&p, &q) || !p.Equal(&before) {
		t.Fatal("a chord addition was not left to the batch")
	}
}
