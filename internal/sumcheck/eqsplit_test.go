package sumcheck

// Equivalence coverage for the fast paths: the eq-factorized ZeroCheck
// against the appended-table reference, and the blocked compiled round
// polynomial scan against a naive pair-by-pair tree-walk evaluation.

import (
	"fmt"
	"runtime"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/transcript"
)

func proofsEqual(t *testing.T, label string, a, b *Proof) {
	t.Helper()
	if !a.Claim.Equal(&b.Claim) {
		t.Fatalf("%s: claims differ", label)
	}
	if len(a.RoundEvals) != len(b.RoundEvals) {
		t.Fatalf("%s: round counts differ (%d vs %d)", label, len(a.RoundEvals), len(b.RoundEvals))
	}
	for i := range a.RoundEvals {
		if len(a.RoundEvals[i]) != len(b.RoundEvals[i]) {
			t.Fatalf("%s: round %d lengths differ", label, i)
		}
		for j := range a.RoundEvals[i] {
			if !a.RoundEvals[i][j].Equal(&b.RoundEvals[i][j]) {
				t.Fatalf("%s: round %d eval %d differs", label, i, j)
			}
		}
	}
	if len(a.FinalEvals) != len(b.FinalEvals) {
		t.Fatalf("%s: final eval counts differ", label)
	}
	for i := range a.FinalEvals {
		if !a.FinalEvals[i].Equal(&b.FinalEvals[i]) {
			t.Fatalf("%s: final eval %d differs", label, i)
		}
	}
}

// TestEqFactoredMatchesAppended pins the eq-factorized ZeroCheck prover to
// the appended-table reference: identical round polynomials, challenges, and
// final evaluations — hence byte-identical proofs — at worker budgets 1, 2,
// and GOMAXPROCS, across gate shapes and sizes.
func TestEqFactoredMatchesAppended(t *testing.T) {
	budgets := []int{1, 2, runtime.GOMAXPROCS(0)}
	cases := []struct {
		name string
		comp *poly.Composite
		nv   int
	}{
		{"vanilla/small", poly.VanillaGate(), 4},
		{"vanilla/mid", poly.VanillaGate(), 8},
		{"jellyfish", poly.JellyfishGate(), 6},
		{"highdegree", poly.HighDegree(7), 5},
		{"onevar", poly.VanillaGate(), 1},
	}
	for _, tc := range cases {
		for _, w := range budgets {
			t.Run(fmt.Sprintf("%s/w=%d", tc.name, w), func(t *testing.T) {
				rng := ff.NewRand(int64(tc.nv)*100 + int64(w))
				a := buildAssignment(t, tc.comp, tc.nv, rng)

				trFast := transcript.New("eqsplit")
				fast, chalFast, err := ProveZero(trFast, a, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				trRef := transcript.New("eqsplit")
				ref, chalRef, err := ProveZeroAppended(trRef, a, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				proofsEqual(t, "fast vs appended", fast.Inner, ref.Inner)
				if len(chalFast) != len(chalRef) {
					t.Fatal("challenge counts differ")
				}
				for i := range chalFast {
					if !chalFast[i].Equal(&chalRef[i]) {
						t.Fatalf("challenge %d differs", i)
					}
				}
				// Both transcripts must end in the same state.
				f1 := trFast.ChallengeScalar("post")
				f2 := trRef.ChallengeScalar("post")
				if !f1.Equal(&f2) {
					t.Fatal("transcript states diverged")
				}
			})
		}
	}
}

// TestEqFactoredVerifies runs the full round trip: fast-path prover,
// standard verifier.
func TestEqFactoredVerifies(t *testing.T) {
	// Satisfied Vanilla circuit: qM=1, qO=1, w3=w1·w2 everywhere.
	c := poly.VanillaGate()
	numVars := 6
	n := 1 << uint(numVars)
	rng := ff.NewRand(707)
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		tables[i] = mle.New(numVars)
	}
	get := func(name string) *mle.Table { return tables[c.VarIndex(name)] }
	for j := 0; j < n; j++ {
		w1, w2 := rng.Element(), rng.Element()
		var w3 ff.Element
		w3.Mul(&w1, &w2)
		get("qM").Evals[j] = ff.One()
		get("qO").Evals[j] = ff.One()
		get("w1").Evals[j] = w1
		get("w2").Evals[j] = w2
		get("w3").Evals[j] = w3
	}
	a, err := NewAssignment(c, tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		trP := transcript.New("zc-fast")
		proof, _, err := ProveZero(trP, a, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		trV := transcript.New("zc-fast")
		point, want, eqVal, err := VerifyZero(trV, c, numVars, proof)
		if err != nil {
			t.Fatal(err)
		}
		finals := proof.Inner.FinalEvals[:c.NumVars()]
		if err := FinalCheckZero(c, finals, &eqVal, &want); err != nil {
			t.Fatal(err)
		}
		// The trailing final eval is eq(r, τ), which the prover derives from
		// the bound prefix instead of a folded table; it must match the
		// verifier's direct computation.
		if !proof.Inner.FinalEvals[c.NumVars()].Equal(&eqVal) {
			t.Fatal("prefix-derived eq(r, τ) disagrees with the verifier")
		}
		_ = point
	}
}

// naiveRoundPolynomial is the scan's independent reference: pair by pair,
// each constituent extended to x(t) = tab[2j] + t·(tab[2j+1] − tab[2j]) by
// a multiplication (not the scan's incremental steps), the composite
// interpreted per point by the tree walk, and the value weighted by
// weights[j] when weights is non-nil — s(t) at t = 0, 2, .., d.
func naiveRoundPolynomial(a *Assignment, d int, weights []ff.Element) []ff.Element {
	half := a.Tables[0].Size() / 2
	ts := []int{0}
	for tt := 2; tt <= d; tt++ {
		ts = append(ts, tt)
	}
	want := make([]ff.Element, len(ts))
	assign := make([]ff.Element, len(a.Tables))
	var diff, step ff.Element
	for j := 0; j < half; j++ {
		for ti, tt := range ts {
			for v, tab := range a.Tables {
				evals := tab.Evals
				diff.Sub(&evals[2*j+1], &evals[2*j])
				step.SetUint64(uint64(tt))
				step.Mul(&step, &diff)
				assign[v].Add(&evals[2*j], &step)
			}
			val := a.Composite.Evaluate(assign)
			if weights != nil {
				val.Mul(&val, &weights[j])
			}
			want[ti].Add(&want[ti], &val)
		}
	}
	return want
}

// TestRoundPolynomialMatchesNaive checks the blocked scan against the naive
// reference for the six sumcheck_sweep16 gates, at sizes whose pair counts
// (1, 4, 64, 1024, 4096) give a lone partial block, whole blocks, and — at
// 3 workers over 4096 pairs — chunks of 1366 pairs that end mid-block; at
// worker budgets 1, 2 and 3; unweighted (Prove's scan, degree d) and
// weighted (the eq-factored ZeroCheck's scan, degree d+1).
func TestRoundPolynomialMatchesNaive(t *testing.T) {
	alpha := ff.NewRand(799).Element()
	comps := []*poly.Composite{
		poly.VanillaGate(), poly.JellyfishGate(), poly.HighDegree(8), poly.HighDegree(16),
		poly.PermCheckK(3, alpha), poly.PermCheckK(5, alpha),
	}
	for ci, c := range comps {
		for _, nv := range []int{1, 3, 7, 11, 13} {
			rng := ff.NewRand(int64(800 + 16*ci + nv))
			a := buildAssignment(t, c, nv, rng)
			prog := c.Compile()
			weights := rng.Elements(a.Tables[0].Size() / 2)
			for _, weighted := range []bool{false, true} {
				d, w := c.Degree(), []ff.Element(nil)
				if weighted {
					d, w = d+1, weights
				}
				want := naiveRoundPolynomial(a, d, w)
				for _, workers := range []int{1, 2, 3} {
					got := roundPolynomialCompressed(nil, a, prog, d, w, workers)
					if len(got) != len(want) {
						t.Fatalf("%s nv=%d: compressed length %d, want %d", c.Name, nv, len(got), len(want))
					}
					for i := range got {
						if !got[i].Equal(&want[i]) {
							t.Fatalf("%s nv=%d weighted=%v workers=%d: point %d of %d differs from the reference",
								c.Name, nv, weighted, workers, i, len(want))
						}
					}
				}
			}
		}
	}
	// RoundPolynomial is the same scan, unweighted at the composite's degree.
	a := buildAssignment(t, poly.JellyfishGate(), 6, ff.NewRand(798))
	got, want := RoundPolynomial(a, 2), naiveRoundPolynomial(a, a.Composite.Degree(), nil)
	for i := range want {
		if !got[i].Equal(&want[i]) {
			t.Fatalf("RoundPolynomial point %d differs from the reference", i)
		}
	}
}
