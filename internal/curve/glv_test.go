package curve

import (
	"math/big"
	"runtime"
	"testing"

	"zkphire/internal/ff"
)

// TestEndoMatchesLambda checks the defining property of the endomorphism on
// random subgroup points: φ(P) = λ·P.
func TestEndoMatchesLambda(t *testing.T) {
	rng := ff.NewRand(51)
	lam := ff.Lambda()
	points := randomPoints(rng, 16)
	for i := range points {
		var phi G1Affine
		phi.Endo(&points[i])
		if !phi.IsOnCurve() {
			t.Fatalf("φ(P) off curve at %d", i)
		}
		var pj, want G1Jac
		pj.FromAffine(&points[i])
		want.ScalarMulBig(&pj, lam)
		var phiJ G1Jac
		phiJ.FromAffine(&phi)
		if !phiJ.Equal(&want) {
			t.Fatalf("φ(P) != λ·P at %d", i)
		}
	}
	// φ preserves the identity.
	var inf, phiInf G1Affine
	inf.SetInfinity()
	phiInf.Endo(&inf)
	if !phiInf.Infinity {
		t.Fatal("φ(∞) != ∞")
	}
}

// TestEndoPointsTable checks the x-only φ-table against pointwise Endo.
func TestEndoPointsTable(t *testing.T) {
	rng := ff.NewRand(52)
	points := randomPoints(rng, 100)
	for _, w := range []int{1, 3, 0} {
		table := EndoPoints(points, w)
		for i := range points {
			var phi G1Affine
			phi.Endo(&points[i])
			if !table[i].Equal(&phi.X) {
				t.Fatalf("workers=%d: endo x-table mismatch at %d", w, i)
			}
		}
	}
}

// glvBudgets are the worker budgets the equivalence tests sweep:
// 1, 2, and GOMAXPROCS (0).
func glvBudgets() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0), 0}
}

// negHeavyScalars returns scalars whose GLV halves are mostly negative:
// values just below r generate neg1, λ-multiples exercise neg2, and the mix
// forces the −P (fp.Neg) path through every bucket branch.
func negHeavyScalars(rng *ff.Rand, n int) []ff.Element {
	lamE := ff.LambdaElement()
	out := make([]ff.Element, n)
	for i := range out {
		e := rng.Element()
		switch i % 3 {
		case 0:
			out[i].Neg(&e) // ≈ r − e: negative k₁ territory
		case 1:
			out[i].Mul(&e, &lamE) // λ-aligned: stresses the k₂ lattice leg
		default:
			var small ff.Element
			small.SetUint64(uint64(i + 1))
			out[i].Sub(&small, &e)
		}
	}
	return out
}

// TestMSMGLVEquivalence pits the GLV+signed-digit MSM against the naive
// double-and-add reference over dense, sparse, zero/one-mixed and
// negative-heavy scalar vectors at worker budgets 1/2/GOMAXPROCS, with and
// without a precomputed φ-table.
func TestMSMGLVEquivalence(t *testing.T) {
	rng := ff.NewRand(53)
	n := 600
	points := randomPoints(rng, n)
	endoX := EndoPoints(points, 0)

	vectors := map[string][]ff.Element{
		"dense":          rng.Elements(n),
		"sparse":         rng.SparseElements(n, 0.15),
		"zeros and ones": withZerosAndOnes(rng.Elements(n)),
		"negative-heavy": negHeavyScalars(rng, n),
	}
	for name, scalars := range vectors {
		want := MSMNaive(points, scalars)
		for _, w := range glvBudgets() {
			if got := MSMWorkers(points, scalars, w); !got.Equal(&want) {
				t.Fatalf("%s workers=%d: MSM disagrees with naive reference", name, w)
			}
			if got, err := MSMEndoWorkersCtx(nil, points, endoX, scalars, w); err != nil || !got.Equal(&want) {
				t.Fatalf("%s workers=%d: table MSM disagrees with naive reference", name, w)
			}
		}
	}
}

// TestMSMGLVEdgeScalars hits the decomposition's boundary scalars inside a
// real MSM: 0, 1, r−1 (pure negation), λ and λ±1 (lattice points), and
// scalars at the c₂ rounding boundary.
func TestMSMGLVEdgeScalars(t *testing.T) {
	rng := ff.NewRand(54)
	lamE := ff.LambdaElement()
	var lamP1, lamM1, rm1, half ff.Element
	oneE := ff.One()
	lamP1.Add(&lamE, &oneE)
	lamM1.Sub(&lamE, &oneE)
	rm1.Neg(&oneE)
	half.SetBigInt(ff.Modulus().Rsh(ff.Modulus(), 1))

	scalars := []ff.Element{
		ff.Zero(), oneE, rm1, lamE, lamP1, lamM1, half,
		ff.NewElement(2), ff.NewInt64(-2),
	}
	points := randomPoints(rng, len(scalars))
	want := MSMNaive(points, scalars)
	for _, w := range glvBudgets() {
		if got := MSMWorkers(points, scalars, w); !got.Equal(&want) {
			t.Fatalf("workers=%d: edge-scalar MSM disagrees with naive", w)
		}
	}
}

// TestGLVDigitReassembly checks the closed-form signed recoding: for random
// and boundary half-width values at several window widths, the signed digits
// must stay in [−2^(c−1), 2^(c−1)] and resum to the value:
// k = Σ dᵢ·2^(c·i).
func TestGLVDigitReassembly(t *testing.T) {
	checkHalf := func(k [2]uint64) {
		t.Helper()
		val := new(big.Int).SetUint64(k[1])
		val.Lsh(val, 64)
		val.Or(val, new(big.Int).SetUint64(k[0]))
		for _, c := range []int{2, 3, 8, 13, 15, 16} {
			numWindows := (glvScalarBits + c - 1) / c
			sum := new(big.Int)
			for wi := 0; wi < numWindows; wi++ {
				d := glvDigit(&k, wi, c)
				if d > 1<<uint(c-1) || d < -(1<<uint(c-1)) {
					t.Fatalf("digit %d out of range at window %d c=%d", d, wi, c)
				}
				term := big.NewInt(int64(d))
				term.Lsh(term, uint(wi*c))
				sum.Add(sum, term)
			}
			if sum.Cmp(val) != 0 {
				t.Fatalf("c=%d: digits resum to %s, want %s", c, sum, val)
			}
		}
	}
	// Boundary halves: zero, single bits, saturated limbs, and the largest
	// value SplitGLV can emit (just under 2^127).
	for _, k := range [][2]uint64{
		{0, 0}, {1, 0}, {^uint64(0), 0}, {0, 1}, {^uint64(0), 1<<63 - 1},
		{1 << 63, 1 << 62},
	} {
		checkHalf(k)
	}
	rng := ff.NewRand(55)
	for iter := 0; iter < 200; iter++ {
		e := rng.Element()
		k1, k2, _, _ := e.SplitGLV()
		checkHalf(k1)
		checkHalf(k2)
	}
}
