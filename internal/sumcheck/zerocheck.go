package sumcheck

import (
	"context"
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/poly"
	"zkphire/internal/transcript"
)

// ZeroCheck proves that a composite polynomial evaluates to zero at every
// point of the hypercube. Summing alone is insufficient (nonzero gate errors
// could cancel), so the composite is multiplied by the random polynomial
// f_r(X) = eq(X, τ) with τ drawn from the transcript, and the sum of the
// product is proven to be zero (Section III-F).
//
// EQ FACTORIZATION (DESIGN.md §5): the prover never materializes or folds
// that 2^µ eq table. Because eq is a product over coordinates,
//
//	eq((r₁..r_{ℓ-1}, t, x), τ) = [Π_{i<ℓ} eq(r_i, τ_i)] · eq(t, τ_ℓ) · eq(x, τ_{>ℓ}),
//
// round ℓ's polynomial factors as s_ℓ(t) = prefix · eq(t, τ_ℓ) · q_ℓ(t):
// a running bound-prefix SCALAR, a linear factor, and
// q_ℓ(t) = Σ_x f(r, t, x)·eq(x, τ_{>ℓ}), the scan over the core composite
// with the half-width suffix table eq(x, τ_{>ℓ}) weighting each pair. The
// suffix tables for all rounds are built once, smallest first
// (2^{µ-1}+…+1 ≈ 2^µ multiplications total).
//
// The verifier knows prefix and eq(t, τ_ℓ), so a round sends only q_ℓ, of
// degree deg(f), as [q(0), q(2), …, q(deg f)] (Gruen, "Some Improvements
// for the PIOP for ZeroCheck", IACR ePrint 2024/108): one scalar fewer than
// s_ℓ's compressed form and one evaluation of the compiled program fewer
// per pair. The verifier tracks the normalized claim c′ = claim/prefix and
// recovers q(1) from c′ = (1−τ_ℓ)·q(0) + τ_ℓ·q(1); the next c′ is q(r_ℓ).
// A test oracle (eqsplit_test.go) drives the appended-table construction
// (BuildZeroCheckAssignment) with the prover's challenges and checks
// s_ℓ = prefix·eq(·, τ_ℓ)·q_ℓ round by round.

// ZeroCheckProof bundles the SumCheck over f·eq(·, τ) whose rounds carry
// the eq-free factor: Inner.RoundEvals[ℓ] is [q_ℓ(0), q_ℓ(2), …, q_ℓ(d)]
// for the core composite's degree d (one entry when d < 2). Inner.Claim is
// 0 and Inner.FinalEvals ends with eq(r, τ), in the wrapped composite's
// layout.
type ZeroCheckProof struct {
	Inner *Proof
}

// BuildZeroCheckAssignment wraps the composite with an eq factor bound to
// eq(X, tau), materializing the full eq table as the last constituent. The
// prover does not use it: it is the appended-table construction, kept for
// the benchmark's whole-table round metric and as the tests' reference.
// The eq table expansion (the paper's Build MLE kernel) runs on the given
// worker budget.
func BuildZeroCheckAssignment(a *Assignment, tau []ff.Element, workers int) (*Assignment, *poly.Composite) {
	wrapped := a.Composite.MulByEq("fr")
	tables := make([]*mle.Table, 0, len(a.Tables)+1)
	tables = append(tables, a.Tables...)
	tables = append(tables, mle.EqWorkers(tau, workers))
	return &Assignment{Composite: wrapped, Tables: tables}, wrapped
}

// ProveZero runs a ZeroCheck on the assignment (claiming f ≡ 0 on the
// hypercube) through the eq-factorized fast path.
func ProveZero(tr *transcript.Transcript, a *Assignment, cfg Config) (*ZeroCheckProof, []ff.Element, error) {
	return ProveZeroCtx(nil, tr, a, cfg)
}

// ProveZeroCtx is ProveZero with mid-round cancellation (see ProveCtx). ctx
// may be nil; the successful proof is identical to ProveZero.
func ProveZeroCtx(ctx context.Context, tr *transcript.Transcript, a *Assignment, cfg Config) (*ZeroCheckProof, []ff.Element, error) {
	mu := a.NumVars()
	tau := tr.ChallengeScalars("zerocheck/tau", mu)
	inner, challenges, err := proveEqFactored(ctx, tr, a, tau, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &ZeroCheckProof{Inner: inner}, challenges, nil
}

// proveEqFactored runs the SumCheck over f·eq(·, τ) without ever holding an
// eq table: the scan evaluates the CORE composite's compiled program at
// the d points q_ℓ needs, weights each pair with the round's eq suffix
// table, and sends q_ℓ unscaled.
func proveEqFactored(ctx context.Context, tr *transcript.Transcript, a *Assignment, tau []ff.Element, cfg Config) (*Proof, []ff.Element, error) {
	w := cfg.workers()
	n := a.Tables[0].Size()

	// Half-size lazy working copies of the core tables, exactly as Prove.
	lw := lazyWorkingCopy(a, cfg)
	defer lw.release()
	work := lw.work

	mu := len(tau)
	prog := a.Composite.Compile()
	d := a.Composite.Degree()

	// Suffix tables for every round in one flat buffer: S_i = eq-table of
	// τ[i+1:], size n>>(i+1), at offset n − (n>>i). Built smallest-first;
	// level i doubles level i+1 by splitting on τ[i+1].
	eqBuf := parallel.GetScratch(n)
	defer parallel.PutScratch(eqBuf)
	offset := func(i int) int { return n - (n >> uint(i)) }
	if mu > 0 {
		eqBuf[offset(mu-1)] = ff.One()
		oneE := ff.One()
		for i := mu - 2; i >= 0; i-- {
			srcOff, dstOff := offset(i+1), offset(i)
			srcLen := n >> uint(i+2)
			ti := tau[i+1]
			var om ff.Element
			om.Sub(&oneE, &ti)
			src, dst := eqBuf[srcOff:srcOff+srcLen], eqBuf[dstOff:dstOff+2*srcLen]
			parallel.For(w, srcLen, func(lo, hi int) {
				for y := lo; y < hi; y++ {
					v := src[y]
					dst[2*y].Mul(&v, &om)
					dst[2*y+1].Mul(&v, &ti)
				}
			})
		}
	}

	proof := &Proof{RoundEvals: make([][]ff.Element, 0, mu)} // Claim: 0
	challenges := make([]ff.Element, 0, mu)
	zeroCheckHeader(tr, mu, d)

	prefix := ff.One() // Π_{i<round} eq(r_i, τ_i)
	for round := 0; round < mu; round++ {
		half := work.Tables[0].Size() / 2
		sfx := eqBuf[offset(round) : offset(round)+half]
		q := roundPolynomialCompressed(ctx, work, prog, d, sfx, w)
		if ctx != nil && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		tr.AppendScalars("sumcheck/round", q)
		r := tr.ChallengeScalar("sumcheck/challenge")
		challenges = append(challenges, r)
		lw.fold(&r)
		er := eqLinear(&r, &tau[round])
		prefix.Mul(&prefix, &er)
		proof.RoundEvals = append(proof.RoundEvals, q)
	}

	// Final evaluations follow the wrapped composite's layout: the core
	// constituents, then the eq constituent — whose fully-bound value is
	// exactly the prefix Π eq(r_i, τ_i) = eq(r, τ).
	proof.FinalEvals = make([]ff.Element, len(work.Tables)+1)
	for i, t := range work.Tables {
		proof.FinalEvals[i] = t.Evals[0]
	}
	proof.FinalEvals[len(work.Tables)] = prefix
	return proof, challenges, nil
}

// zeroCheckHeader absorbs what both sides know before the first round:
// the size, the wrapped composite's degree and the claim 0.
func zeroCheckHeader(tr *transcript.Transcript, mu, d int) {
	zero := ff.Zero()
	tr.AppendUint64("sumcheck/numvars", uint64(mu))
	tr.AppendUint64("sumcheck/degree", uint64(d+1))
	tr.AppendScalar("sumcheck/claim", &zero)
}

// eqLinear returns eq(x, τ) = (1−x)(1−τ) + xτ = 1 − τ + x(2τ − 1).
func eqLinear(x, tau *ff.Element) ff.Element {
	oneE := ff.One()
	var e, slope ff.Element
	e.Sub(&oneE, tau)
	slope.Sub(tau, &e)
	slope.Mul(&slope, x)
	return *e.Add(&e, &slope)
}

// VerifyZero replays the ZeroCheck. It returns the challenge point and the
// value the *wrapped* composite (f·f_r) must take there, eq(r, τ)·c′ for
// the final normalized claim c′. The final eq value eq(r, τ) is computed
// directly by the verifier, so callers need only verify the original
// constituents' evaluations. proof.Inner.Claim is not read: the claim is 0.
func VerifyZero(tr *transcript.Transcript, c *poly.Composite, numVars int, proof *ZeroCheckProof) (point []ff.Element, want ff.Element, eqVal ff.Element, err error) {
	tau := tr.ChallengeScalars("zerocheck/tau", numVars)
	if len(proof.Inner.RoundEvals) != numVars {
		return nil, ff.Element{}, ff.Element{}, fmt.Errorf("zerocheck: %d rounds, want %d", len(proof.Inner.RoundEvals), numVars)
	}
	d := c.Degree()
	zeroCheckHeader(tr, numVars, d)
	point, last, err := verifyZeroRounds(tr, tau, d, proof.Inner.RoundEvals)
	if err != nil {
		return nil, ff.Element{}, ff.Element{}, err
	}
	eqVal = mle.EqEval(point, tau)
	want.Mul(&eqVal, &last)
	return point, want, eqVal, nil
}

// verifyZeroRounds runs the verifier's rounds over the normalized claim
// c′ = claim/prefix, starting from 0: round ℓ's message is q_ℓ at
// t = 0, 2, …, d, q(1) = (c′ − (1−τ_ℓ)·q(0))/τ_ℓ, and the next c′ is
// q_ℓ(r_ℓ). It returns the challenges and the final c′. A zero τ_ℓ is
// rejected: eq(1, τ_ℓ) = τ_ℓ would not determine q(1).
func verifyZeroRounds(tr *transcript.Transcript, tau []ff.Element, d int, rounds [][]ff.Element) ([]ff.Element, ff.Element, error) {
	tauInv := append([]ff.Element(nil), tau...)
	ff.BatchInvert(tauInv)
	for l := range tauInv {
		if tauInv[l].IsZero() {
			return nil, ff.Element{}, fmt.Errorf("zerocheck: τ_%d = 0", l)
		}
	}
	n := max(d, 1) // q's compressed length, as the scan produces it
	oneE := ff.One()
	var claim ff.Element
	evals := make([]ff.Element, n+1)
	point := make([]ff.Element, 0, len(rounds))
	for l, q := range rounds {
		if len(q) != n {
			return nil, ff.Element{}, fmt.Errorf("zerocheck: round %d has %d evals, want %d", l, len(q), n)
		}
		var t ff.Element
		t.Sub(&oneE, &tau[l])
		t.Mul(&t, &q[0])
		evals[0] = q[0]
		evals[1].Sub(&claim, &t)
		evals[1].Mul(&evals[1], &tauInv[l])
		copy(evals[2:], q[1:])
		tr.AppendScalars("sumcheck/round", q)
		r := tr.ChallengeScalar("sumcheck/challenge")
		point = append(point, r)
		claim = ff.EvalFromPoints(evals, &r)
	}
	return point, claim, nil
}

// FinalCheckZero confirms claimed constituent evaluations against the
// ZeroCheck's final claim: f(finalEvals)·eq(r,τ) must equal want.
func FinalCheckZero(c *poly.Composite, finalEvals []ff.Element, eqVal, want *ff.Element) error {
	if len(finalEvals) != c.NumVars() {
		return fmt.Errorf("zerocheck: %d final evals for %d constituents", len(finalEvals), c.NumVars())
	}
	got := c.Evaluate(finalEvals)
	got.Mul(&got, eqVal)
	if !got.Equal(want) {
		return fmt.Errorf("zerocheck: final evaluation mismatch")
	}
	return nil
}
