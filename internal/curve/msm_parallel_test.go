package curve

import (
	"testing"

	"zkphire/internal/ff"
)

// TestMSMWorkersBudgetIndependent checks that the chunked Pippenger path
// returns the exact same group element for every worker budget, including
// sizes that force multi-chunk bucket accumulation.
func TestMSMWorkersBudgetIndependent(t *testing.T) {
	rng := ff.NewRand(31)
	n := 1 << 10
	points := randomPoints(rng, n)
	scalars := rng.Elements(n)
	want := MSMNaive(points, scalars)
	for _, w := range []int{1, 2, 7, 64, 0} {
		got := MSMWorkers(points, scalars, w)
		if !got.Equal(&want) {
			t.Fatalf("workers=%d: MSM disagrees with naive", w)
		}
	}
}

// TestMSMZeroOneSplit covers the 0/1 rule at its edges against MSMNaive,
// through MSMWorkers and MSMEndoWorkersCtx at budgets 1/2/3: all-zero and
// all-one vectors (nothing reaches a bucket), a mix of zeros, ones and
// dense scalars, and one dense scalar among 2^12 zeros (a window sized for
// one point). An explicit window width must not change the all-0/1 result.
func TestMSMZeroOneSplit(t *testing.T) {
	rng := ff.NewRand(32)
	const n = 1 << 12
	points := multiplesOfG(n)
	endoX := EndoPoints(points)
	allOnes := make([]ff.Element, n)
	for i := range allOnes {
		allOnes[i] = ff.One()
	}
	lone := make([]ff.Element, n)
	lone[n/3] = rng.Element()
	for name, scalars := range map[string][]ff.Element{
		"all zero":       make([]ff.Element, n),
		"all one":        allOnes,
		"zeros and ones": withZerosAndOnes(rng.Elements(1 << 10)),
		"lone dense":     lone,
	} {
		pts, endo := points[:len(scalars)], endoX[:len(scalars)]
		want := MSMNaive(pts, scalars)
		for _, w := range []int{1, 2, 3} {
			if got := MSMWorkers(pts, scalars, w); !got.Equal(&want) {
				t.Fatalf("%s workers=%d: MSMWorkers disagrees with naive", name, w)
			}
			got, err := MSMEndoWorkersCtx(nil, pts, endo, scalars, w)
			if err != nil || !got.Equal(&want) {
				t.Fatalf("%s workers=%d: MSMEndoWorkersCtx disagrees with naive (%v)", name, w, err)
			}
			if CountDense(scalars, w) == 0 {
				if got := msmGLVCtx(nil, pts, nil, scalars, w, 9); !got.Equal(&want) {
					t.Fatalf("%s workers=%d: count 0 at c=9 disagrees with naive", name, w)
				}
			}
		}
	}
}

func TestBatchFromJacobianWorkers(t *testing.T) {
	rng := ff.NewRand(33)
	g := GeneratorJac()
	n := 300
	jacs := make([]G1Jac, n)
	for i := range jacs {
		k := rng.Element()
		jacs[i].ScalarMul(&g, &k)
	}
	jacs[11].SetInfinity()
	want := BatchFromJacobianWorkers(jacs, 1)
	for _, w := range []int{2, 5, 0} {
		got := BatchFromJacobianWorkers(jacs, w)
		for i := range want {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("workers=%d: mismatch at %d", w, i)
			}
		}
	}
}

func TestMulManyWorkers(t *testing.T) {
	rng := ff.NewRand(34)
	table := NewFixedBaseTable(Generator(), 8)
	ks := rng.Elements(200)
	want := table.MulManyWorkers(ks, 1)
	got := table.MulManyWorkers(ks, 4)
	for i := range want {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// TestMSMBatchAffineEdgeCases drives the batch-affine bucket paths hard:
// repeated points (forces the doubling slope), P and −P with equal digits
// (forces bucket cancellation and refill), and narrow digit ranges (forces
// same-bucket conflicts that flush the queue).
func TestMSMBatchAffineEdgeCases(t *testing.T) {
	rng := ff.NewRand(35)
	base := randomPoints(rng, 8)
	var points []G1Affine
	var scalars []ff.Element
	// Many copies of few points with tiny scalars: every window digit lands
	// in a handful of buckets, colliding constantly.
	for i := 0; i < 200; i++ {
		p := base[i%len(base)]
		if i%5 == 0 {
			p.Neg(&p)
		}
		points = append(points, p)
		scalars = append(scalars, ff.NewElement(uint64(1+i%7)))
	}
	// A few infinity points with nonzero scalars must be ignored.
	var inf G1Affine
	inf.SetInfinity()
	points = append(points, inf, inf)
	scalars = append(scalars, ff.NewElement(3), rng.Element())

	want := MSMNaive(points, scalars)
	for _, c := range []int{3, 5, 8, 13} {
		got := msmGLVCtx(nil, points, nil, scalars, 1, c)
		if !got.Equal(&want) {
			t.Fatalf("c=%d: batch-affine MSM disagrees with naive", c)
		}
	}
	// Random dense case across window widths, serial and parallel.
	n := 1 << 9
	pts := randomPoints(rng, n)
	sc := rng.Elements(n)
	want = MSMNaive(pts, sc)
	for _, c := range []int{4, 9, 12} {
		for _, w := range []int{1, 4} {
			got := msmGLVCtx(nil, pts, nil, sc, w, c)
			if !got.Equal(&want) {
				t.Fatalf("c=%d w=%d: MSM mismatch", c, w)
			}
		}
	}
}

// TestMSMFlushPathsAtScale runs a 2^13-point MSM, large enough that the
// batch-affine queue hits both mid-stream flush triggers (queue full at
// maxBatch, conflict at minAmortize) that small tests never reach. Three
// very different window decompositions of the same sum must agree — a bug
// in either flush branch cannot produce the same wrong point under all
// three digit groupings.
func TestMSMFlushPathsAtScale(t *testing.T) {
	rng := ff.NewRand(36)
	n := 1 << 13
	g := Generator()
	jacs := make([]G1Jac, n)
	var acc G1Jac
	acc.SetInfinity()
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	points := BatchFromJacobian(jacs)
	scalars := rng.Elements(n)

	ref := msmGLVCtx(nil, points, nil, scalars, 1, 5) // overflow-heavy narrow windows
	for _, c := range []int{9, 13} {                  // 13: queue reaches maxBatch
		got := msmGLVCtx(nil, points, nil, scalars, 1, c)
		if !got.Equal(&ref) {
			t.Fatalf("c=%d disagrees with c=5 on the same sum", c)
		}
	}
}
