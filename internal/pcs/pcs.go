// Package pcs implements a multilinear polynomial commitment scheme in the
// style of PST13/multilinear-KZG — the commitment scheme HyperPlonk pairs
// with its SumCheck IOP.
//
// Committing to a µ-variable MLE is an MSM of its 2^µ evaluations against a
// Lagrange-basis SRS; opening at a point z produces µ witness commitments
// (one per variable) via the telescoping identity
//
//	f(X) − f(z) = Σ_i (X_i − z_i)·q_i(X_{i+1..µ}).
//
// SUBSTITUTION (documented in DESIGN.md): the paper's testbed verifies
// openings with a BLS12-381 pairing. This reproduction keeps the trapdoor τ
// from its *simulated* trusted setup and checks the algebraically identical
// group equation
//
//	C − y·G = Σ_i (τ_i − z_i)·Π_i
//
// in G1 directly. The prover side — every MSM the zkPHIRE hardware
// accelerates — is bit-identical to the pairing-based scheme.
package pcs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
)

// SRS is the structured reference string for up to MaxVars variables.
type SRS struct {
	MaxVars int
	// Levels[k] is the Lagrange commitment basis for k-variable MLEs:
	// Levels[k][x] = eq(x, τ[MaxVars-k:])·G for x ∈ {0,1}^k.
	Levels [][]curve.G1Affine
	// Tau is the simulation trapdoor, retained for trapdoor verification in
	// place of the pairing check.
	Tau []ff.Element
	// G is the group generator.
	G curve.G1Affine

	// endo lazily caches, per level, the GLV φ-table of the commitment
	// basis (x-coordinates only — φ(P) = (βx, y) shares y with P, see
	// curve.EndoPoints). Every MSM in CommitWorkers/OpenWorkers runs
	// against it, so βx is computed once per SRS level, not once per call;
	// sessions and the serving layer share the SRS and therefore the
	// tables.
	endoMu sync.Mutex
	endo   [][]fp.Element

	// back, when non-nil, is the offloaded-SRS backing (see Offload in
	// offload.go): large levels live in a spill store and Levels[k] is nil
	// for them; every commit/open path streams them through msmRangeCtx.
	back *backing
}

// EndoPoints returns the φ-table for the k-variable commitment basis,
// building and caching it on first use (single-flight under a mutex; the
// build itself runs on the given worker budget). The returned slice is
// shared and must be treated as read-only. Only valid for resident levels —
// an offloaded level's φ-table is computed chunk by chunk on the
// commit/open paths instead.
func (s *SRS) EndoPoints(k, workers int) []fp.Element {
	if s.Levels[k] == nil {
		panic("pcs: EndoPoints on an offloaded SRS level — use the commit/open paths, which stream it")
	}
	s.endoMu.Lock()
	defer s.endoMu.Unlock()
	if s.endo == nil {
		s.endo = make([][]fp.Element, len(s.Levels))
	}
	if s.endo[k] == nil {
		s.endo[k] = curve.EndoPoints(s.Levels[k], workers)
	}
	return s.endo[k]
}

// WarmEndo builds the cached φ-tables for every resident level up to
// maxLevel. Preprocessing calls it so a session's first Prove never pays
// the lazy build. Offloaded levels are skipped: their tables are computed
// per streamed chunk and never kept.
func (s *SRS) WarmEndo(maxLevel, workers int) {
	if maxLevel > s.MaxVars {
		maxLevel = s.MaxVars
	}
	for k := 0; k <= maxLevel; k++ {
		if s.Levels[k] != nil {
			s.EndoPoints(k, workers)
		}
	}
}

// Commitment is a hiding-free binding commitment to an MLE.
type Commitment struct {
	Point   curve.G1Affine
	NumVars int
}

// OpeningProof holds the µ witness commitments for one point opening.
type OpeningProof struct {
	Qs []curve.G1Affine
}

// maxSetupVars is the largest SRS Setup and SetupDeterministic build: its
// 2^26-point top level alone is ~6.5 GiB.
const maxSetupVars = 26

// CheckVars reports whether Setup and SetupDeterministic accept maxVars,
// which must lie in 1..26.
func CheckVars(maxVars int) error {
	if maxVars < 1 || maxVars > maxSetupVars {
		return fmt.Errorf("pcs: unsupported SRS variable count %d (want 1..%d)", maxVars, maxSetupVars)
	}
	return nil
}

// Setup generates an SRS for MLEs of up to maxVars variables. Randomness is
// read from rng (crypto/rand in production, a seeded reader in tests).
func Setup(maxVars int, rng io.Reader) (*SRS, error) {
	if err := CheckVars(maxVars); err != nil {
		return nil, err
	}
	tau := make([]ff.Element, maxVars)
	for i := range tau {
		if _, err := tau[i].SetRandom(rng); err != nil {
			return nil, err
		}
	}
	return setupWithTau(maxVars, tau), nil
}

// SetupDeterministic builds an SRS from a seed; for tests and benchmarks.
// It panics if CheckVars rejects maxVars, so callers passing untrusted
// sizes check first.
func SetupDeterministic(maxVars int, seed int64) *SRS {
	if err := CheckVars(maxVars); err != nil {
		panic(err)
	}
	rng := ff.NewRand(seed)
	tau := rng.Elements(maxVars)
	return setupWithTau(maxVars, tau)
}

// setupWithTau builds the top level by fixed-base multiplication and every
// lower level by addition. eq sums to 1 over its first coordinate, and
// level k+1's first variable is the index's low bit, so
//
//	Levels[k][i] = Levels[k+1][2i] + Levels[k+1][2i+1]:
//
// 2^maxVars scalar multiplications in all, then one mixed addition per
// lower-level entry and one batch normalization per level.
func setupWithTau(maxVars int, tau []ff.Element) *SRS {
	g := curve.Generator()
	fb := curve.NewFixedBaseTableSized(g, 1<<uint(maxVars))
	srs := &SRS{MaxVars: maxVars, Tau: tau, G: g, Levels: make([][]curve.G1Affine, maxVars+1)}
	srs.Levels[maxVars] = fb.MulManyWorkers(mle.EqWorkers(tau, 0).Evals, 0)
	for k := maxVars - 1; k >= 0; k-- {
		srs.Levels[k] = curve.PairSumsWorkers(srs.Levels[k+1], 0)
	}
	return srs
}

// tauSuffix returns the trapdoor coordinates used by a k-variable MLE.
func (s *SRS) tauSuffix(k int) []ff.Element { return s.Tau[s.MaxVars-k:] }

// Commit commits to an MLE with the full machine. Its 0 and 1 entries
// never reach an MSM bucket (curve's Sparse MSM rule, the hardware's
// witness-commitment mode), whatever the table's density.
func (s *SRS) Commit(t *mle.Table) (Commitment, error) {
	return s.CommitWorkers(t, 0)
}

// CommitWorkers is Commit with an explicit worker budget (<= 0 means
// GOMAXPROCS). The resulting commitment is identical for every budget.
func (s *SRS) CommitWorkers(t *mle.Table, workers int) (Commitment, error) {
	return s.CommitCtx(nil, t, workers)
}

// CommitCtx is CommitWorkers with mid-MSM cancellation: a cancel lands
// inside the Pippenger accumulation (curve.MSMEndoWorkersCtx) instead of
// waiting out the whole commitment. The successful result is identical to
// CommitWorkers for every budget.
func (s *SRS) CommitCtx(ctx context.Context, t *mle.Table, workers int) (Commitment, error) {
	k := t.NumVars
	if k > s.MaxVars {
		return Commitment{}, fmt.Errorf("pcs: table has %d vars, SRS supports %d", k, s.MaxVars)
	}
	acc, err := s.msmRangeCtx(ctx, k, 0, t.Evals, workers)
	if err != nil {
		return Commitment{}, err
	}
	var aff curve.G1Affine
	aff.FromJacobian(&acc)
	return Commitment{Point: aff, NumVars: k}, nil
}

// Open produces an evaluation proof for t at point z, returning the value
// f(z) and the witness commitments. It uses the full machine.
func (s *SRS) Open(t *mle.Table, z []ff.Element) (ff.Element, *OpeningProof, error) {
	return s.OpenWorkers(t, z, 0)
}

// OpenWorkers is Open with an explicit worker budget.
func (s *SRS) OpenWorkers(t *mle.Table, z []ff.Element, workers int) (ff.Element, *OpeningProof, error) {
	return s.OpenWorkersCtx(nil, t, z, workers)
}

// OpenWorkersCtx is OpenWorkers with mid-MSM cancellation: every level's
// witness MSM polls ctx (nil means never cancelled). The caller's table is
// only read: the first level folds it into a half-size arena buffer, and
// later levels ping-pong between that buffer and a quarter-size one, as
// mle.EvaluateWorkers does; the quotient table shares one more half-size
// buffer across levels. The quotient construction and folds are chunked,
// and each level's witness MSM runs on the same budget.
func (s *SRS) OpenWorkersCtx(ctx context.Context, t *mle.Table, z []ff.Element, workers int) (ff.Element, *OpeningProof, error) {
	k := t.NumVars
	if len(z) != k {
		return ff.Element{}, nil, fmt.Errorf("pcs: point arity %d for %d-var table", len(z), k)
	}
	if k > s.MaxVars {
		return ff.Element{}, nil, fmt.Errorf("pcs: table too large for SRS")
	}
	if k == 0 {
		return t.Evals[0], &OpeningProof{}, nil
	}
	half := t.Size() / 2
	qBuf := parallel.GetScratch(half)
	bufA := parallel.GetScratch(half)
	bufB := parallel.GetScratch(half / 2)
	defer parallel.PutScratch(qBuf)
	defer parallel.PutScratch(bufA)
	defer parallel.PutScratch(bufB)

	cur := t.Evals
	proof := &OpeningProof{Qs: make([]curve.G1Affine, k)}
	for i := 0; i < k; i++ {
		m := len(cur) / 2
		q := qBuf[:m]
		evals := cur
		parallel.For(workers, m, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				q[j].Sub(&evals[2*j+1], &evals[2*j])
			}
		})
		acc, err := s.msmRangeCtx(ctx, k-i-1, 0, q, workers)
		if err != nil {
			return ff.Element{}, nil, err
		}
		proof.Qs[i].FromJacobian(&acc)
		dst := bufA[:m]
		if i%2 == 1 {
			dst = bufB[:m]
		}
		mle.FoldInto(dst, cur, &z[i], workers)
		cur = dst
	}
	return cur[0], proof, nil
}

// ErrVerify reports an invalid opening.
var ErrVerify = errors.New("pcs: opening verification failed")

// Verify checks that commitment c opens to value y at point z.
//
// Trapdoor-mode check of the pairing identity: C − y·G = Σ (τ_i − z_i)·Π_i.
func (s *SRS) Verify(c Commitment, z []ff.Element, y ff.Element, proof *OpeningProof) error {
	k := c.NumVars
	if len(z) != k || len(proof.Qs) != k {
		return fmt.Errorf("pcs: arity mismatch in verification")
	}
	if k > s.MaxVars {
		return fmt.Errorf("pcs: commitment has %d vars, SRS supports %d", k, s.MaxVars)
	}
	suffix := s.tauSuffix(k)

	var lhs curve.G1Jac
	lhs.FromAffine(&c.Point)
	var yNeg ff.Element
	yNeg.Neg(&y)
	var gJ, yG curve.G1Jac
	gJ.FromAffine(&s.G)
	yG.ScalarMul(&gJ, &yNeg)
	lhs.AddAssign(&yG)

	// RHS = Σ (τ_i − z_i)·Q_i via one MSM.
	scalars := make([]ff.Element, k)
	for i := 0; i < k; i++ {
		scalars[i].Sub(&suffix[i], &z[i])
	}
	rhs := curve.MSM(proof.Qs, scalars)

	if !lhs.Equal(&rhs) {
		return ErrVerify
	}
	return nil
}

// CombineCommitments returns Σ coeffs[i]·cs[i]; all commitments must share
// the same arity. Used for batched single-point openings.
func CombineCommitments(cs []Commitment, coeffs []ff.Element) (Commitment, error) {
	if len(cs) == 0 || len(cs) != len(coeffs) {
		return Commitment{}, fmt.Errorf("pcs: bad combination arity")
	}
	k := cs[0].NumVars
	points := make([]curve.G1Affine, len(cs))
	for i := range cs {
		if cs[i].NumVars != k {
			return Commitment{}, fmt.Errorf("pcs: mixed arity in combination")
		}
		points[i] = cs[i].Point
	}
	acc := curve.MSM(points, coeffs)
	var aff curve.G1Affine
	aff.FromJacobian(&acc)
	return Commitment{Point: aff, NumVars: k}, nil
}

// CombineTablesWorkers returns Σ coeffs[i]·tables[i] as a new arena table
// (mle.NewScratch; the caller may Release it) on a worker budget. Entries
// are independent, so the combination chunks over the evaluation index;
// within a chunk each block of at most 64 entries accumulates the scaled
// tables in ff.Lanes rows and unpacks once.
func CombineTablesWorkers(tables []*mle.Table, coeffs []ff.Element, workers int) (*mle.Table, error) {
	if len(tables) == 0 || len(tables) != len(coeffs) {
		return nil, fmt.Errorf("pcs: bad combination arity")
	}
	for _, t := range tables {
		if t.NumVars != tables[0].NumVars {
			return nil, fmt.Errorf("pcs: mixed arity in table combination")
		}
	}
	out := mle.NewScratch(tables[0].NumVars)
	cs := make([]ff.LaneConst, len(coeffs))
	for i := range coeffs {
		cs[i] = ff.NewLaneConst(&coeffs[i])
	}
	const groups = 8
	parallel.For(workers, out.Size(), func(lo, hi int) {
		var acc, term [groups]ff.Lanes
		for b := lo; b < hi; b += groups * ff.LaneCount {
			m := min(groups*ff.LaneCount, hi-b)
			g := (m + ff.LaneCount - 1) / ff.LaneCount
			for i, t := range tables {
				ff.PackLanes(term[:g], t.Evals[b:b+m])
				if i == 0 {
					ff.ScalarMulLanes(acc[:g], term[:g], cs[i].Row())
					continue
				}
				ff.ScalarMulLanes(term[:g], term[:g], cs[i].Row())
				ff.AddLanes(acc[:g], acc[:g], term[:g])
			}
			ff.UnpackLanes(out.Evals[b:b+m], acc[:g])
		}
	})
	return out, nil
}
