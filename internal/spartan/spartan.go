// Package spartan implements the SumCheck core of the Spartan protocol
// (CRYPTO'20) over R1CS constraint systems — the second protocol family the
// paper's programmable unit targets (Table I polys 1–2, the Spartan rows of
// Table II, and the NoCap comparison of Table IX).
//
// The proving phases implemented are exactly what zkPHIRE accelerates:
//
//	outer SumCheck:  Σ_x eq(τ,x) · (Ãz(x)·B̃z(x) − C̃z(x)) = 0    (poly 1)
//	inner SumCheck:  v = Σ_y M̃(r_x,y) · z̃(y)                     (poly 2)
//
// where M̃ batches A/B/C with verifier randomness. The matrices are public
// index data, so the verifier checks the final matrix evaluations directly
// (full Spartan commits them with SPARK; that commitment machinery is out of
// scope here and documented as such in DESIGN.md).
package spartan

import (
	"fmt"

	"zkphire/internal/expr"
	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// Entry is one nonzero matrix coefficient.
type Entry struct {
	Row, Col int
	Val      ff.Element
}

// R1CS is a rank-1 constraint system: for every row r,
// (A·z)[r] · (B·z)[r] = (C·z)[r], with the convention z[0] = 1.
type R1CS struct {
	NumRows int // padded to a power of two by the prover
	NumCols int
	A, B, C []Entry
}

// NewR1CS returns an empty system with the given dimensions.
func NewR1CS(rows, cols int) *R1CS {
	return &R1CS{NumRows: rows, NumCols: cols}
}

// AddConstraint appends row r with the given sparse coefficient maps.
func (r *R1CS) AddConstraint(row int, a, b, c map[int]ff.Element) {
	for col, v := range a {
		r.A = append(r.A, Entry{row, col, v})
	}
	for col, v := range b {
		r.B = append(r.B, Entry{row, col, v})
	}
	for col, v := range c {
		r.C = append(r.C, Entry{row, col, v})
	}
}

// Validate checks index bounds.
func (r *R1CS) Validate() error {
	for _, m := range [][]Entry{r.A, r.B, r.C} {
		for _, e := range m {
			if e.Row < 0 || e.Row >= r.NumRows || e.Col < 0 || e.Col >= r.NumCols {
				return fmt.Errorf("spartan: entry (%d,%d) out of bounds", e.Row, e.Col)
			}
		}
	}
	return nil
}

// mulVec computes M·z over the padded row space.
func mulVec(entries []Entry, z []ff.Element, rows int) []ff.Element {
	out := make([]ff.Element, rows)
	var t ff.Element
	for _, e := range entries {
		t.Mul(&e.Val, &z[e.Col])
		out[e.Row].Add(&out[e.Row], &t)
	}
	return out
}

// Satisfied reports whether witness z satisfies the system.
func (r *R1CS) Satisfied(z []ff.Element) bool {
	if len(z) != r.NumCols || !z[0].IsOne() {
		return false
	}
	az := mulVec(r.A, z, r.NumRows)
	bz := mulVec(r.B, z, r.NumRows)
	cz := mulVec(r.C, z, r.NumRows)
	var prod ff.Element
	for i := 0; i < r.NumRows; i++ {
		prod.Mul(&az[i], &bz[i])
		if !prod.Equal(&cz[i]) {
			return false
		}
	}
	return true
}

// Proof is the two-phase Spartan SumCheck proof.
type Proof struct {
	Outer *sumcheck.Proof
	// ABCEvals are the claimed Ãz/B̃z/C̃z values at the outer point.
	ABCEvals [3]ff.Element
	Inner    *sumcheck.Proof
}

func pad2(n int) (int, int) {
	nv := 0
	for 1<<uint(nv) < n {
		nv++
	}
	if nv == 0 {
		nv = 1
	}
	return 1 << uint(nv), nv
}

// outerComposite is (A·B − C)·f_τ, i.e. Table I poly 1.
func outerComposite() *poly.Composite {
	e := expr.Prod(expr.Minus(expr.Prod(expr.V("A"), expr.V("B")), expr.V("C")), expr.V("ftau"))
	return poly.FromExpr("SpartanOuter", -1, e, map[string]poly.Role{
		"A": poly.RoleDense, "B": poly.RoleDense, "C": poly.RoleDense,
	})
}

// innerComposite is (SumABC)·Z, i.e. Table I poly 2.
func innerComposite() *poly.Composite {
	e := expr.Prod(expr.V("SumABC"), expr.V("Z"))
	return poly.FromExpr("SpartanInner", -1, e, map[string]poly.Role{
		"SumABC": poly.RoleDense, "Z": poly.RoleDense,
	})
}

// Prove runs both SumCheck phases for a satisfied R1CS instance.
func Prove(tr *transcript.Transcript, r *R1CS, z []ff.Element, cfg sumcheck.Config) (*Proof, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(z) != r.NumCols {
		return nil, fmt.Errorf("spartan: witness has %d cols, want %d", len(z), r.NumCols)
	}
	rows, muX := pad2(r.NumRows)
	cols, muY := pad2(r.NumCols)
	zPad := make([]ff.Element, cols)
	copy(zPad, z)

	tr.AppendUint64("spartan/rows", uint64(rows))
	tr.AppendUint64("spartan/cols", uint64(cols))

	az := mle.FromEvals(mulVec(r.A, zPad, rows))
	bz := mle.FromEvals(mulVec(r.B, zPad, rows))
	cz := mle.FromEvals(mulVec(r.C, zPad, rows))

	// Outer phase: ZeroCheck-style with τ from the transcript.
	tau := tr.ChallengeScalars("spartan/tau", muX)
	outer := outerComposite()
	outerTabs := make([]*mle.Table, 4)
	outerTabs[outer.VarIndex("A")] = az
	outerTabs[outer.VarIndex("B")] = bz
	outerTabs[outer.VarIndex("C")] = cz
	outerTabs[outer.VarIndex("ftau")] = mle.Eq(tau)
	outerAssign, err := sumcheck.NewAssignment(outer, outerTabs)
	if err != nil {
		return nil, err
	}
	proof := &Proof{}
	outerProof, rx, err := sumcheck.Prove(tr, outerAssign, ff.Zero(), cfg)
	if err != nil {
		return nil, err
	}
	proof.Outer = outerProof
	proof.ABCEvals[0] = az.Evaluate(rx)
	proof.ABCEvals[1] = bz.Evaluate(rx)
	proof.ABCEvals[2] = cz.Evaluate(rx)
	tr.AppendScalars("spartan/abc", proof.ABCEvals[:])

	// Inner phase: batch the three matrix-vector claims.
	rc := tr.ChallengeScalars("spartan/batch", 3)
	eqRx := mle.Eq(rx)
	m := mle.New(muY)
	var t ff.Element
	for i, entries := range [][]Entry{r.A, r.B, r.C} {
		for _, e := range entries {
			t.Mul(&e.Val, &eqRx.Evals[e.Row])
			t.Mul(&t, &rc[i])
			m.Evals[e.Col].Add(&m.Evals[e.Col], &t)
		}
	}
	inner := innerComposite()
	innerTabs := make([]*mle.Table, 2)
	innerTabs[inner.VarIndex("SumABC")] = m
	innerTabs[inner.VarIndex("Z")] = mle.FromEvals(zPad)
	innerAssign, err := sumcheck.NewAssignment(inner, innerTabs)
	if err != nil {
		return nil, err
	}
	var innerClaim ff.Element
	for i := 0; i < 3; i++ {
		t.Mul(&rc[i], &proof.ABCEvals[i])
		innerClaim.Add(&innerClaim, &t)
	}
	innerProof, _, err := sumcheck.Prove(tr, innerAssign, innerClaim, cfg)
	if err != nil {
		return nil, err
	}
	proof.Inner = innerProof
	return proof, nil
}

// MatrixEval evaluates M̃(rx, ry) for a sparse matrix directly (the verifier
// holds the matrices as public index data).
func MatrixEval(entries []Entry, rx, ry []ff.Element) ff.Element {
	eqR := mle.Eq(rx)
	eqC := mle.Eq(ry)
	var out, t ff.Element
	for _, e := range entries {
		t.Mul(&e.Val, &eqR.Evals[e.Row])
		t.Mul(&t, &eqC.Evals[e.Col])
		out.Add(&out, &t)
	}
	return out
}

// Verify replays both phases. The witness stays secret; only the final z̃
// evaluation is taken from the inner proof's final evals (full Spartan would
// anchor it to a witness commitment).
func Verify(tr *transcript.Transcript, r *R1CS, proof *Proof) error {
	rows, muX := pad2(r.NumRows)
	cols, muY := pad2(r.NumCols)
	_ = cols

	tr.AppendUint64("spartan/rows", uint64(rows))
	tr.AppendUint64("spartan/cols", uint64(cols))

	tau := tr.ChallengeScalars("spartan/tau", muX)
	outer := outerComposite()
	rx, outerWant, err := sumcheck.Verify(tr, outer, muX, ff.Zero(), proof.Outer)
	if err != nil {
		return fmt.Errorf("spartan: outer: %w", err)
	}
	// Final outer identity: (A·B − C)·eq(rx, τ).
	var got, ab ff.Element
	ab.Mul(&proof.ABCEvals[0], &proof.ABCEvals[1])
	got.Sub(&ab, &proof.ABCEvals[2])
	eqV := mle.EqEval(rx, tau)
	got.Mul(&got, &eqV)
	if !got.Equal(&outerWant) {
		return fmt.Errorf("spartan: outer final identity failed")
	}
	tr.AppendScalars("spartan/abc", proof.ABCEvals[:])

	rc := tr.ChallengeScalars("spartan/batch", 3)
	inner := innerComposite()
	var innerClaim, t ff.Element
	for i := 0; i < 3; i++ {
		t.Mul(&rc[i], &proof.ABCEvals[i])
		innerClaim.Add(&innerClaim, &t)
	}
	ry, innerWant, err := sumcheck.Verify(tr, inner, muY, innerClaim, proof.Inner)
	if err != nil {
		return fmt.Errorf("spartan: inner: %w", err)
	}
	// Final inner identity: M̃(rx,ry)·z̃(ry), with M̃ evaluated from the
	// public matrices and z̃(ry) from the proof's final evaluations.
	var mEval ff.Element
	for i, entries := range [][]Entry{r.A, r.B, r.C} {
		v := MatrixEval(entries, rx, ry)
		v.Mul(&v, &rc[i])
		mEval.Add(&mEval, &v)
	}
	zIdx := inner.VarIndex("Z")
	mIdx := inner.VarIndex("SumABC")
	if !proof.Inner.FinalEvals[mIdx].Equal(&mEval) {
		return fmt.Errorf("spartan: claimed matrix evaluation inconsistent with index")
	}
	var final ff.Element
	final.Mul(&mEval, &proof.Inner.FinalEvals[zIdx])
	if !final.Equal(&innerWant) {
		return fmt.Errorf("spartan: inner final identity failed")
	}
	return nil
}
