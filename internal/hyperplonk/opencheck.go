package hyperplonk

import (
	"context"
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/pcs"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// The OpenCheck (Table I poly 24) combines many evaluation claims
// {f_{p_k}(z_k) = y_k} into a single one. With challenge α the prover runs a
// SumCheck over
//
//	g(X) = Σ_k α^k · f_{p_k}(X) · eq(X, z_k),
//
// whose hypercube sum is Σ_k α^k·y_k by construction. The SumCheck reduces
// everything to the polynomials' values at one point r*, which are proven
// with a single batched PCS opening of Σ_i β^i f_i.

// buildOpenCheckComposite constructs the composite for numPolys distinct
// polynomials and the given claims. Variables: f0..f{n-1} then eq0..eq{m-1}.
func buildOpenCheckComposite(numPolys int, numPoints int, claims []evalClaim, alpha ff.Element) *poly.Composite {
	c := &poly.Composite{Name: "OpenCheck", ID: 24}
	for i := 0; i < numPolys; i++ {
		c.VarNames = append(c.VarNames, fmt.Sprintf("f%d", i))
		c.Roles = append(c.Roles, poly.RoleDense)
	}
	for i := 0; i < numPoints; i++ {
		c.VarNames = append(c.VarNames, fmt.Sprintf("eq%d", i))
		c.Roles = append(c.Roles, poly.RoleEq)
	}
	coeff := ff.One()
	for _, cl := range claims {
		c.Terms = append(c.Terms, poly.Term{
			Coeff: coeff,
			Factors: []poly.Factor{
				{Var: cl.Poly, Power: 1},
				{Var: numPolys + cl.Point, Power: 1},
			},
		})
		coeff.Mul(&coeff, &alpha)
	}
	return c
}

// openCheckClaim computes Σ_k α^k·y_k.
func openCheckClaim(claims []evalClaim, alpha ff.Element) ff.Element {
	var sum ff.Element
	coeff := ff.One()
	var t ff.Element
	for _, cl := range claims {
		t.Mul(&coeff, &cl.Value)
		sum.Add(&sum, &t)
		coeff.Mul(&coeff, &alpha)
	}
	return sum
}

// openDeferred carries an OpenCheck whose transcript traffic is complete but
// whose witness commitments (the batched PCS opening's Qs) are still owed.
// Nothing in the remaining transcript depends on the Qs, so the two halves
// are separate functions: the SumCheck-bound stream and the MSM-bound
// witness chain are the two spans a step-5 breakdown wants apart.
type openDeferred struct {
	op     *OpenProof
	label  string
	polys  []*mle.Table
	coeffs []ff.Element
	rStar  []ff.Element
}

// proveOpenCheckStream runs the transcript-interactive part of one
// OpenCheck: the α challenge, the SumCheck, the finals absorption, the β
// challenge, and the opened-value absorption. The opened value is computed
// as the dot product Σ βⁱ·f_i(r*) over the SumCheck's final evaluations —
// field arithmetic is exact and the batched table Σ βⁱ·f_i is linear, so
// this is the SAME field element the OpenWorkersCtx fold produces
// (computeWitness asserts it).
func proveOpenCheckStream(ctx context.Context, tr *transcript.Transcript, label string, polys []*mle.Table, claims []evalClaim, points []openPoint, cfg sumcheck.Config) (*openDeferred, error) {
	alpha := tr.ChallengeScalar(label + "/alpha")
	comp := buildOpenCheckComposite(len(polys), len(points), claims, alpha)

	tabs := make([]*mle.Table, 0, len(polys)+len(points))
	tabs = append(tabs, polys...)
	for _, pt := range points {
		tabs = append(tabs, mle.EqWorkers(pt.coords, cfg.Workers))
	}
	assign, err := sumcheck.NewAssignment(comp, tabs)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: %s: %w", label, err)
	}
	claim := openCheckClaim(claims, alpha)
	inner, rStar, err := sumcheck.ProveCtx(ctx, tr, assign, claim, cfg)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: %s sumcheck: %w", label, err)
	}

	op := &OpenProof{Sumcheck: inner}
	op.PolyEvals = append([]ff.Element(nil), inner.FinalEvals[:len(polys)]...)
	tr.AppendScalars(label+"/finals", op.PolyEvals)

	beta := tr.ChallengeScalar(label + "/beta")
	coeffs := betaPowers(beta, len(polys))
	var t ff.Element
	var opened ff.Element
	for i := range op.PolyEvals {
		t.Mul(&coeffs[i], &op.PolyEvals[i])
		opened.Add(&opened, &t)
	}
	op.Opened = opened
	tr.AppendScalar(label+"/opened", &opened)
	return &openDeferred{op: op, label: label, polys: polys, coeffs: coeffs, rStar: rStar}, nil
}

// computeWitness produces the batched single-point opening Σ βⁱ·f_i at r*
// and checks the fold reproduces the already-absorbed opened value exactly.
func (d *openDeferred) computeWitness(ctx context.Context, srs *pcs.SRS, workers int) error {
	combined, err := pcs.CombineTablesWorkers(d.polys, d.coeffs, workers)
	if err != nil {
		return err
	}
	opened, proofPCS, err := srs.OpenWorkersCtx(ctx, combined, d.rStar, workers)
	if err != nil {
		return fmt.Errorf("hyperplonk: %s opening: %w", d.label, err)
	}
	if !opened.Equal(&d.op.Opened) {
		return fmt.Errorf("hyperplonk: %s: deferred opening fold diverged from absorbed value", d.label)
	}
	d.op.PCS = proofPCS
	return nil
}

// verifyOpenCheck replays one OpenCheck instance against the commitments.
func verifyOpenCheck(tr *transcript.Transcript, srs *pcs.SRS, label string, comms []pcs.Commitment, claims []evalClaim, points []openPoint, numVars int, op *OpenProof) error {
	alpha := tr.ChallengeScalar(label + "/alpha")
	comp := buildOpenCheckComposite(len(comms), len(points), claims, alpha)

	claim := openCheckClaim(claims, alpha)
	if !op.Sumcheck.Claim.Equal(&claim) {
		return fmt.Errorf("hyperplonk: %s: claim mismatch", label)
	}
	rStar, want, err := sumcheck.Verify(tr, comp, numVars, op.Sumcheck)
	if err != nil {
		return fmt.Errorf("hyperplonk: %s: %w", label, err)
	}
	if len(op.PolyEvals) != len(comms) {
		return fmt.Errorf("hyperplonk: %s: wrong eval count", label)
	}

	// Check the final identity with verifier-computed eq values.
	assign := make([]ff.Element, comp.NumVars())
	copy(assign, op.PolyEvals)
	for i, pt := range points {
		assign[len(comms)+i] = mle.EqEval(rStar, pt.coords)
	}
	got := comp.Evaluate(assign)
	if !got.Equal(&want) {
		return fmt.Errorf("hyperplonk: %s: final identity failed", label)
	}
	tr.AppendScalars(label+"/finals", op.PolyEvals)

	// Batched PCS verification.
	beta := tr.ChallengeScalar(label + "/beta")
	coeffs := betaPowers(beta, len(comms))
	var wantOpened ff.Element
	var t ff.Element
	for i := range op.PolyEvals {
		t.Mul(&coeffs[i], &op.PolyEvals[i])
		wantOpened.Add(&wantOpened, &t)
	}
	if !wantOpened.Equal(&op.Opened) {
		return fmt.Errorf("hyperplonk: %s: combined value mismatch", label)
	}
	combComm, err := pcs.CombineCommitments(comms, coeffs)
	if err != nil {
		return err
	}
	if err := srs.Verify(combComm, rStar, op.Opened, op.PCS); err != nil {
		return fmt.Errorf("hyperplonk: %s: %w", label, err)
	}
	tr.AppendScalar(label+"/opened", &op.Opened)
	return nil
}

func betaPowers(beta ff.Element, n int) []ff.Element {
	coeffs := make([]ff.Element, n)
	coeffs[0] = ff.One()
	for i := 1; i < n; i++ {
		coeffs[i].Mul(&coeffs[i-1], &beta)
	}
	return coeffs
}
