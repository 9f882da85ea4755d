package sumcheck

// Equivalence coverage for the fast paths: the eq-factorized ZeroCheck
// against the appended-table construction, and the blocked compiled round
// polynomial scan against a naive pair-by-pair tree-walk evaluation.

import (
	"fmt"
	"runtime"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/poly"
	"zkphire/internal/transcript"
)

// checkAppendedOracle is the appended-table reference for a fast ZeroCheck
// proof. It materializes eq(X, τ) as a constituent (BuildZeroCheckAssignment),
// drives RoundPolynomial over the wrapped assignment with the fast prover's
// challenges, and checks round by round that the wrapped round polynomial
// is s_ℓ(t) = prefix·eq(t, τ_ℓ)·q_ℓ(t) at every t = 0..d+1, for the q_ℓ the
// proof sends. The wrapped tables' final values must be the proof's
// FinalEvals, eq(r, τ) included.
func checkAppendedOracle(t *testing.T, a *Assignment, tau, challenges []ff.Element, proof *Proof, workers int) {
	t.Helper()
	wrapped, _ := BuildZeroCheckAssignment(a, tau, workers)
	wrapped = wrapped.Clone()
	d := a.Composite.Degree()
	if len(proof.RoundEvals) != len(tau) || len(challenges) != len(tau) {
		t.Fatalf("%d rounds and %d challenges for %d variables", len(proof.RoundEvals), len(challenges), len(tau))
	}
	// The wrapped SumCheck's running claim, from the true hypercube sum: the
	// random tables need not satisfy the gate.
	claim := wrapped.SumAll()
	prefix := ff.One()
	for l, q := range proof.RoundEvals {
		if len(q) != max(d, 1) {
			t.Fatalf("round %d sends %d evals, want %d", l, len(q), max(d, 1))
		}
		s := DecompressRound(RoundPolynomial(wrapped, workers), &claim) // s(0..d+1)
		// q at 0..d: the message, with q(1) from s(1) = prefix·τ_ℓ·q(1).
		qs := make([]ff.Element, d+1)
		qs[0] = q[0]
		copy(qs[2:], q[1:])
		var inv ff.Element
		inv.Mul(&prefix, &tau[l])
		inv.Inverse(&inv)
		qs[1].Mul(&s[1], &inv)
		for tt := range s {
			var x ff.Element
			x.SetUint64(uint64(tt))
			qt := ff.EvalFromPoints(qs[:max(d, 1)+1], &x)
			eq := eqLinear(&x, &tau[l])
			var want ff.Element
			want.Mul(&prefix, &eq)
			want.Mul(&want, &qt)
			if !s[tt].Equal(&want) {
				t.Fatalf("round %d: s(%d) ≠ prefix·eq(%d, τ)·q(%d)", l, tt, tt, tt)
			}
		}
		r := challenges[l]
		claim = ff.EvalFromPoints(s, &r)
		for _, tab := range wrapped.Tables {
			tab.FoldWorkers(&r, workers)
		}
		er := eqLinear(&r, &tau[l])
		prefix.Mul(&prefix, &er)
	}
	if len(proof.FinalEvals) != len(wrapped.Tables) {
		t.Fatalf("%d final evals for %d wrapped constituents", len(proof.FinalEvals), len(wrapped.Tables))
	}
	for i, tab := range wrapped.Tables {
		if !tab.Evals[0].Equal(&proof.FinalEvals[i]) {
			t.Fatalf("final eval %d differs from the folded wrapped table", i)
		}
	}
}

// TestEqFactoredMatchesAppended pins the eq-factorized ZeroCheck prover to
// the appended-table oracle — every round's s = prefix·eq·q, the final
// evaluations, and the challenges the verifier re-derives — at worker
// budgets 1, 2, and GOMAXPROCS, across gate shapes and sizes.
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

				proof, challenges, err := ProveZero(transcript.New("eqsplit"), a, Config{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				tau := transcript.New("eqsplit").ChallengeScalars("zerocheck/tau", tc.nv)
				checkAppendedOracle(t, a, tau, challenges, proof.Inner, w)

				// The verifier re-derives the same challenges.
				point, _, _, err := VerifyZero(transcript.New("eqsplit"), tc.comp, tc.nv, proof)
				if err != nil {
					t.Fatal(err)
				}
				for i := range challenges {
					if !point[i].Equal(&challenges[i]) {
						t.Fatalf("challenge %d differs from the verifier's", i)
					}
				}
			})
		}
	}
}

// TestEqFactoredVerifies runs the full round trip: fast-path prover,
// standard verifier.
func TestEqFactoredVerifies(t *testing.T) {
	const numVars = 6
	a := satisfiedVanilla(t, numVars, ff.NewRand(707))
	c := a.Composite
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
// worker budgets 1, 2 and 3; unweighted (Prove's scan) and weighted (the
// eq-factored ZeroCheck's scan), both at the composite's degree d.
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
					w = weights
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
