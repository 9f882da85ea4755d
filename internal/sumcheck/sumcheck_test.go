package sumcheck

import (
	"fmt"
	"strings"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/transcript"
)

// buildAssignment creates tables matching the composite's roles: selectors
// get 0/1 entries, witnesses sparse entries, dense gets random, eq gets a
// proper eq table.
func buildAssignment(t testing.TB, c *poly.Composite, numVars int, rng *ff.Rand) *Assignment {
	n := 1 << uint(numVars)
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		switch c.Roles[i] {
		case poly.RoleSelector:
			evals := make([]ff.Element, n)
			for j := range evals {
				if rng.Intn(2) == 1 {
					evals[j] = ff.One()
				}
			}
			tables[i] = mle.FromEvals(evals)
		case poly.RoleWitness:
			tables[i] = mle.FromEvals(rng.SparseElements(n, 0.1))
		case poly.RoleEq:
			tables[i] = mle.Eq(rng.Elements(numVars))
		default:
			tables[i] = mle.FromEvals(rng.Elements(n))
		}
	}
	a, err := NewAssignment(c, tables)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func proveAndVerify(t *testing.T, c *poly.Composite, numVars int, seed int64) {
	t.Helper()
	rng := ff.NewRand(seed)
	a := buildAssignment(t, c, numVars, rng)
	claim := a.SumAll()

	trP := transcript.New("test")
	proof, _, err := Prove(trP, a, claim, Config{})
	if err != nil {
		t.Fatal(err)
	}

	trV := transcript.New("test")
	point, want, err := Verify(trV, c, numVars, claim, proof)
	if err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	if len(point) != numVars {
		t.Fatal("wrong challenge count")
	}
	if err := FinalCheck(c, proof.FinalEvals, &want); err != nil {
		t.Fatal(err)
	}
	// Cross-check: final evals must equal the actual MLE evaluations at the
	// challenge point.
	for i, tab := range a.Tables {
		got := tab.Evaluate(point)
		if !got.Equal(&proof.FinalEvals[i]) {
			t.Fatalf("final eval %d does not match MLE evaluation", i)
		}
	}
}

func TestProveVerifyAllTableIPolys(t *testing.T) {
	for id := 0; id < poly.NumRegistered; id++ {
		id := id
		t.Run(fmt.Sprintf("poly%d", id), func(t *testing.T) {
			t.Parallel()
			proveAndVerify(t, poly.Registered(id), 6, int64(100+id))
		})
	}
}

func TestProveVerifyHighDegree(t *testing.T) {
	for _, d := range []int{2, 5, 13, 30} {
		proveAndVerify(t, poly.HighDegree(d), 5, int64(d))
	}
}

func TestProveVerifyVariousSizes(t *testing.T) {
	c := poly.VanillaZeroCheck()
	for _, nv := range []int{1, 2, 3, 8, 10} {
		proveAndVerify(t, c, nv, int64(nv))
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	c := poly.JellyfishZeroCheck()
	rng := ff.NewRand(55)
	a := buildAssignment(t, c, 7, rng)
	claim := a.SumAll()

	var firstRound []ff.Element
	for _, workers := range []int{1, 2, 3, 8, 64} {
		tr := transcript.New("w")
		proof, _, err := Prove(tr, a, claim, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if firstRound == nil {
			firstRound = proof.RoundEvals[0]
			continue
		}
		for i := range firstRound {
			if !proof.RoundEvals[0][i].Equal(&firstRound[i]) {
				t.Fatalf("worker count %d changes round polynomial", workers)
			}
		}
	}
}

func TestCheatingProverRejected(t *testing.T) {
	c := poly.VanillaZeroCheck()
	rng := ff.NewRand(77)
	a := buildAssignment(t, c, 6, rng)
	claim := a.SumAll()

	trP := transcript.New("test")
	proof, _, err := Prove(trP, a, claim, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Verify against a wrong claim. With compressed rounds the per-round
	// identity is implicit (s(1) is reconstructed from the claim), so the
	// mismatch surfaces at the final evaluation binding.
	var oneE, badClaim ff.Element
	oneE.SetOne()
	badClaim.Add(&claim, &oneE)
	trV := transcript.New("test")
	if _, want, err := Verify(trV, c, 6, badClaim, proof); err == nil {
		if ferr := FinalCheck(c, proof.FinalEvals, &want); ferr == nil {
			t.Fatal("verifier accepted tampered claim")
		}
	}

	// Tamper with a middle round evaluation: the claim chain diverges and
	// the final binding must fail.
	bad2 := *proof
	bad2.RoundEvals = make([][]ff.Element, len(proof.RoundEvals))
	for i := range proof.RoundEvals {
		bad2.RoundEvals[i] = append([]ff.Element(nil), proof.RoundEvals[i]...)
	}
	bad2.RoundEvals[3][1].Add(&bad2.RoundEvals[3][1], &oneE)
	trV2 := transcript.New("test")
	if _, want, err := Verify(trV2, c, 6, claim, &bad2); err == nil {
		if ferr := FinalCheck(c, bad2.FinalEvals, &want); ferr == nil {
			t.Fatal("verifier accepted tampered round evaluation")
		}
	}

	// Structural tampering (wrong arity) is rejected by Verify directly.
	bad3 := *proof
	bad3.RoundEvals = append([][]ff.Element{}, proof.RoundEvals...)
	bad3.RoundEvals[0] = bad3.RoundEvals[0][:1]
	trV3b := transcript.New("test")
	if _, _, err := Verify(trV3b, c, 6, claim, &bad3); err == nil {
		t.Fatal("verifier accepted malformed round")
	}

	// Tamper with final evals: Verify passes (it cannot see them) but
	// FinalCheck must fail.
	trV3 := transcript.New("test")
	_, want, err := Verify(trV3, c, 6, claim, proof)
	if err != nil {
		t.Fatal(err)
	}
	badFinals := append([]ff.Element(nil), proof.FinalEvals...)
	badFinals[0].Add(&badFinals[0], &oneE)
	if err := FinalCheck(c, badFinals, &want); err == nil {
		t.Fatal("FinalCheck accepted tampered evaluations")
	}
}

func TestWrongTranscriptDomainRejected(t *testing.T) {
	c := poly.VanillaGate()
	rng := ff.NewRand(88)
	a := buildAssignment(t, c, 5, rng)
	claim := a.SumAll()
	trP := transcript.New("domainA")
	proof, _, err := Prove(trP, a, claim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	trV := transcript.New("domainB")
	_, want, err := Verify(trV, c, 5, claim, proof)
	if err == nil {
		// Round checks may pass by chance structure; the final binding must
		// not.
		if ferr := FinalCheck(c, proof.FinalEvals, &want); ferr == nil {
			t.Fatal("proof verified under a different transcript domain")
		}
	}
}

func TestZeroCheckHonest(t *testing.T) {
	const numVars = 6
	a := satisfiedVanilla(t, numVars, ff.NewRand(99))
	c := a.Composite

	trP := transcript.New("zc")
	proof, _, err := ProveZero(trP, a, Config{})
	if err != nil {
		t.Fatal(err)
	}

	trV := transcript.New("zc")
	point, want, eqVal, err := VerifyZero(trV, c, numVars, proof)
	if err != nil {
		t.Fatal(err)
	}
	// Final evals: all constituents except the trailing eq factor.
	finals := proof.Inner.FinalEvals[:c.NumVars()]
	if err := FinalCheckZero(c, finals, &eqVal, &want); err != nil {
		t.Fatal(err)
	}
	_ = point
}

// satisfiedVanilla returns a Vanilla gate assignment that holds on every
// row: qM = qO = 1 and w3 = w1·w2.
func satisfiedVanilla(t *testing.T, numVars int, rng *ff.Rand) *Assignment {
	t.Helper()
	c := poly.VanillaGate()
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		tables[i] = mle.New(numVars)
	}
	get := func(name string) *mle.Table { return tables[c.VarIndex(name)] }
	for j := 0; j < 1<<uint(numVars); j++ {
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
	return a
}

// TestZeroCheckRejectsInconsistentQ shifts one value of one round's q
// message of an honest ZeroCheck. The verifier derives q(1) from the
// running claim, so the shifted message's implied s(0)+s(1) with the
// honest q(1) is not the claim; the reconstructed polynomial is not the
// prover's, and the final binding must fail.
func TestZeroCheckRejectsInconsistentQ(t *testing.T) {
	const numVars = 5
	a := satisfiedVanilla(t, numVars, ff.NewRand(31))
	c := a.Composite
	proof, _, err := ProveZero(transcript.New("zc-q"), a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oneE := ff.One()
	for round := range proof.Inner.RoundEvals {
		for slot := range proof.Inner.RoundEvals[round] {
			bad := &ZeroCheckProof{Inner: &Proof{RoundEvals: make([][]ff.Element, numVars), FinalEvals: proof.Inner.FinalEvals}}
			for i, r := range proof.Inner.RoundEvals {
				bad.Inner.RoundEvals[i] = append([]ff.Element(nil), r...)
			}
			bad.Inner.RoundEvals[round][slot].Add(&bad.Inner.RoundEvals[round][slot], &oneE)
			_, want, eqVal, err := VerifyZero(transcript.New("zc-q"), c, numVars, bad)
			if err != nil {
				t.Fatal(err)
			}
			if FinalCheckZero(c, bad.Inner.FinalEvals[:c.NumVars()], &eqVal, &want) == nil {
				t.Fatalf("round %d: a q message shifted at slot %d verified", round, slot)
			}
		}
	}
}

// TestZeroCheckRejectsZeroTau: the verifier's rounds divide by τ_ℓ to
// recover q(1), so a zero τ_ℓ is rejected rather than inverted to 0.
func TestZeroCheckRejectsZeroTau(t *testing.T) {
	rng := ff.NewRand(32)
	tau := rng.Elements(3)
	rounds := [][]ff.Element{rng.Elements(3), rng.Elements(3), rng.Elements(3)}
	if _, _, err := verifyZeroRounds(transcript.New("tau"), tau, 3, rounds); err != nil {
		t.Fatalf("nonzero τ rejected: %v", err)
	}
	tau[1] = ff.Zero()
	if _, _, err := verifyZeroRounds(transcript.New("tau"), tau, 3, rounds); err == nil || !strings.Contains(err.Error(), "τ_1 = 0") {
		t.Fatalf("zero τ_1: %v, want a τ_1 = 0 error", err)
	}
}

func TestZeroCheckCatchesCancellingErrors(t *testing.T) {
	// Two gates violated with opposite signs: plain sum is zero, ZeroCheck
	// must still reject.
	c := poly.VanillaGate()
	numVars := 4
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		tables[i] = mle.New(numVars)
	}
	get := func(name string) *mle.Table { return tables[c.VarIndex(name)] }
	// qC only: composite = qC. Set qC = +1 at gate 0, -1 at gate 1.
	get("qC").Evals[0] = ff.One()
	var minus ff.Element
	minus.Neg(get("qC").Evals[0].SetOne())
	get("qC").Evals[0] = ff.One()
	get("qC").Evals[1] = minus
	a, err := NewAssignment(c, tables)
	if err != nil {
		t.Fatal(err)
	}
	if sum := a.SumAll(); !sum.IsZero() {
		t.Fatal("setup broken: errors should cancel in the plain sum")
	}

	trP := transcript.New("zc2")
	proof, _, err := ProveZero(trP, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// An honest ZeroCheck run over a *violated* circuit: Σ f·fr ≠ 0, so the
	// verifier's reconstructed claim chain diverges from the prover's true
	// evaluations and the final binding must fail.
	trV := transcript.New("zc2")
	point, want, eqVal, err := VerifyZero(trV, c, numVars, proof)
	if err == nil {
		finals := proof.Inner.FinalEvals[:c.NumVars()]
		if ferr := FinalCheckZero(c, finals, &eqVal, &want); ferr == nil {
			t.Fatal("ZeroCheck accepted a circuit with cancelling gate errors")
		}
	}
	_ = point
}

func TestCountMuls(t *testing.T) {
	c := poly.ProductGate(2) // one term, two factors, degree 2
	// k=3 evals, 2 muls per entry per point → 6, + fold 2 per pair.
	// numVars=3: pairs 4,2,1 → (6+2)*(4+2+1) = 56.
	if got := CountMuls(c, 3); got != 56 {
		t.Fatalf("CountMuls = %d, want 56", got)
	}
	// Monotone in degree and size.
	if CountMuls(poly.HighDegree(10), 10) <= CountMuls(poly.HighDegree(3), 10) {
		t.Fatal("CountMuls not monotone in degree")
	}
}

func TestAssignmentValidation(t *testing.T) {
	c := poly.VanillaGate()
	if _, err := NewAssignment(c, nil); err == nil {
		t.Fatal("accepted nil tables")
	}
	tabs := make([]*mle.Table, c.NumVars())
	for i := range tabs {
		tabs[i] = mle.New(3)
	}
	tabs[2] = mle.New(4)
	if _, err := NewAssignment(c, tabs); err == nil {
		t.Fatal("accepted mismatched table sizes")
	}
}

func BenchmarkSumcheckVanilla2_14(b *testing.B) {
	benchSumcheck(b, poly.VanillaZeroCheck(), 14)
}

func BenchmarkSumcheckJellyfish2_14(b *testing.B) {
	benchSumcheck(b, poly.JellyfishZeroCheck(), 14)
}

func benchSumcheck(b *testing.B, c *poly.Composite, numVars int) {
	rng := ff.NewRand(1)
	a := buildAssignment(b, c, numVars, rng)
	claim := a.SumAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := transcript.New("bench")
		if _, _, err := Prove(tr, a, claim, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
