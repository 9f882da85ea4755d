package hyperplonk

import (
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
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
//
// The prover and the verifier describe each OpenCheck once, with the helpers
// below: the opening set (claims and points), the α-composite with its
// claimed sum, and the β-combination of the values at r*.

// evalClaim says: distinct polynomial Poly evaluates to Value at point
// index Point.
type evalClaim struct {
	Poly  int
	Point int
	Value ff.Element
}

// openSet is what one OpenCheck proves: its evaluation claims and the
// points they index. The polynomials — the prover's tables, the verifier's
// commitments — come beside it in the same distinct-polynomial order.
type openSet struct {
	claims []evalClaim
	points [][]ff.Element
}

// mainOrder is the main OpenCheck's distinct-polynomial order: selectors,
// wires, σ.
func mainOrder[T any](selectors, wires, sigmas []T) []T {
	out := make([]T, 0, len(selectors)+len(wires)+len(sigmas))
	out = append(out, selectors...)
	out = append(out, wires...)
	return append(out, sigmas...)
}

// mainOpenSet is the main OpenCheck at the gate and perm points. Its claim
// order fixes the α powers: the gate constituents at the gate point, in the
// gate composite's variable order (that of GateEvals), then each wire and
// its σ at the perm point.
func mainOpenSet(idx *Index, proof *Proof, rGate, rPerm []ff.Element) openSet {
	numSel, k := len(idx.SelectorNames), idx.Wires
	slot := make(map[string]int, numSel+k)
	for i, name := range idx.SelectorNames {
		slot[name] = i
	}
	for j := range k {
		slot[poly.WireName(j+1)] = numSel + j
	}
	set := openSet{points: [][]ff.Element{rGate, rPerm}}
	for gi, name := range idx.Gate.VarNames {
		if p, ok := slot[name]; ok {
			set.claims = append(set.claims, evalClaim{Poly: p, Point: 0, Value: proof.GateEvals[gi]})
		}
	}
	for j := range k {
		set.claims = append(set.claims,
			evalClaim{Poly: numSel + j, Point: 1, Value: proof.WirePermEvals[j]},
			evalClaim{Poly: numSel + k + j, Point: 1, Value: proof.SigmaPermEvals[j]})
	}
	return set
}

// vViewPoints are the four points of V whose evaluations reconstruct
// π, p₁, p₂, ϕ at r, in the order of Proof.VEvals.
func vViewPoints(r []ff.Element) [][]ff.Element {
	pi, p1, p2, phi := perm.ViewPoints(r)
	return [][]ff.Element{pi, p1, p2, phi}
}

// vOpenSet is V's OpenCheck: V at its four view points, valued by VEvals.
func vOpenSet(proof *Proof, rPerm []ff.Element) openSet {
	set := openSet{points: vViewPoints(rPerm)}
	for i, v := range proof.VEvals {
		set.claims = append(set.claims, evalClaim{Poly: 0, Point: i, Value: v})
	}
	return set
}

// openCheckComposite draws the OpenCheck's α and returns g over numPolys
// distinct polynomials — variables f0..f{n-1}, then eq0..eq{m-1} — with its
// claimed hypercube sum Σ_k α^k·y_k.
func openCheckComposite(tr *transcript.Transcript, label string, numPolys int, set openSet) (*poly.Composite, ff.Element) {
	alpha := tr.ChallengeScalar(label + "/alpha")
	c := &poly.Composite{Name: "OpenCheck", ID: 24}
	for i := 0; i < numPolys; i++ {
		c.VarNames = append(c.VarNames, fmt.Sprintf("f%d", i))
		c.Roles = append(c.Roles, poly.RoleDense)
	}
	for i := range set.points {
		c.VarNames = append(c.VarNames, fmt.Sprintf("eq%d", i))
		c.Roles = append(c.Roles, poly.RoleEq)
	}
	var claim, t ff.Element
	coeff := ff.One()
	for _, cl := range set.claims {
		c.Terms = append(c.Terms, poly.Term{
			Coeff: coeff,
			Factors: []poly.Factor{
				{Var: cl.Poly, Power: 1},
				{Var: numPolys + cl.Point, Power: 1},
			},
		})
		t.Mul(&coeff, &cl.Value)
		claim.Add(&claim, &t)
		coeff.Mul(&coeff, &alpha)
	}
	return c, claim
}

// betaCombine draws the batching challenge β and returns its powers with
// Σ βⁱ·evals[i], the value the batched opening of Σ βⁱ·f_i opens to.
func betaCombine(tr *transcript.Transcript, label string, evals []ff.Element) ([]ff.Element, ff.Element) {
	beta := tr.ChallengeScalar(label + "/beta")
	coeffs := make([]ff.Element, len(evals))
	var sum, t ff.Element
	coeff := ff.One()
	for i := range coeffs {
		coeffs[i] = coeff
		t.Mul(&coeff, &evals[i])
		sum.Add(&sum, &t)
		coeff.Mul(&coeff, &beta)
	}
	return coeffs, sum
}

// openCheck proves one OpenCheck end to end: the SumCheck that reduces the
// set's claims to the polynomials' values at r*, then the batched PCS
// opening of Σ βⁱ·f_i there. Field arithmetic is exact and the batched
// table is linear, so the opening's value is the β-combination already
// absorbed; a mismatch is a prover fault.
func (p *prover) openCheck(label string, polys []*mle.Table, set openSet) (*OpenProof, error) {
	comp, claim := openCheckComposite(p.tr, label, len(polys), set)
	eqs := make([]*mle.Table, len(set.points))
	for i, pt := range set.points {
		eqs[i] = mle.EqWorkers(pt, p.workers)
	}
	// The eq tables are arena tables the SumCheck reads until its first
	// fold; they go back then, or at the latest when this OpenCheck ends.
	releaseEqs := func() {
		for _, t := range eqs {
			t.Release()
		}
	}
	defer releaseEqs()
	tabs := append(append(make([]*mle.Table, 0, len(polys)+len(eqs)), polys...), eqs...)
	assign, err := sumcheck.NewAssignment(comp, tabs)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: %s: %w", label, err)
	}
	cfg := p.scCfg()
	cfg.ReleaseSources = releaseEqs
	inner, rStar, err := sumcheck.ProveCtx(p.ctx, p.tr, assign, claim, cfg)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: %s sumcheck: %w", label, err)
	}

	op := &OpenProof{Sumcheck: inner}
	op.PolyEvals = append([]ff.Element(nil), inner.FinalEvals[:len(polys)]...)
	p.tr.AppendScalars(label+"/finals", op.PolyEvals)
	coeffs, opened := betaCombine(p.tr, label, op.PolyEvals)
	p.tr.AppendScalar(label+"/opened", &opened)

	combined, err := pcs.CombineTablesWorkers(polys, coeffs, p.workers)
	if err != nil {
		return nil, err
	}
	defer combined.Release()
	op.Opened, op.PCS, err = p.srs.OpenWorkersCtx(p.ctx, combined, rStar, p.workers)
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: %s opening: %w", label, err)
	}
	if !op.Opened.Equal(&opened) {
		return nil, fmt.Errorf("hyperplonk: %s: opening fold diverged from the combined evaluations", label)
	}
	return op, nil
}

// verifyOpenCheck replays one OpenCheck against the commitments. The
// SumCheck's claim and the opened value are the verifier's own: the claim
// from the set's values, the opened value from the β-combination of
// PolyEvals. The proof's copies are not read.
func verifyOpenCheck(tr *transcript.Transcript, srs *pcs.SRS, label string, comms []pcs.Commitment, set openSet, numVars int, op *OpenProof) error {
	comp, claim := openCheckComposite(tr, label, len(comms), set)
	rStar, want, err := sumcheck.Verify(tr, comp, numVars, claim, op.Sumcheck)
	if err != nil {
		return fmt.Errorf("hyperplonk: %s: %w", label, err)
	}
	if len(op.PolyEvals) != len(comms) {
		return fmt.Errorf("hyperplonk: %s: wrong eval count", label)
	}

	// Check the final identity with verifier-computed eq values.
	assign := make([]ff.Element, comp.NumVars())
	copy(assign, op.PolyEvals)
	for i, pt := range set.points {
		assign[len(comms)+i] = mle.EqEval(rStar, pt)
	}
	got := comp.Evaluate(assign)
	if !got.Equal(&want) {
		return fmt.Errorf("hyperplonk: %s: final identity failed", label)
	}
	tr.AppendScalars(label+"/finals", op.PolyEvals)

	// Batched PCS verification.
	coeffs, opened := betaCombine(tr, label, op.PolyEvals)
	combComm, err := pcs.CombineCommitments(comms, coeffs)
	if err != nil {
		return err
	}
	if err := srs.Verify(combComm, rStar, opened, op.PCS); err != nil {
		return fmt.Errorf("hyperplonk: %s: %w", label, err)
	}
	tr.AppendScalar(label+"/opened", &opened)
	return nil
}
