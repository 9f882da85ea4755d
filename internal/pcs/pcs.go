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
		s.endo[k] = curve.EndoPointsWorkers(s.Levels[k], workers)
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

// Setup generates an SRS for MLEs of up to maxVars variables. Randomness is
// read from rng (crypto/rand in production, a seeded reader in tests).
func Setup(maxVars int, rng io.Reader) (*SRS, error) {
	if maxVars < 1 || maxVars > 26 {
		return nil, fmt.Errorf("pcs: unsupported variable count %d", maxVars)
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
func SetupDeterministic(maxVars int, seed int64) *SRS {
	rng := ff.NewRand(seed)
	tau := rng.Elements(maxVars)
	return setupWithTau(maxVars, tau)
}

func setupWithTau(maxVars int, tau []ff.Element) *SRS {
	g := curve.Generator()
	// One fixed-base table serves every level; its window is sized for the
	// Σ_k 2^k ≈ 2^{maxVars+1} scalar multiplications below, and MulMany
	// fans the per-scalar work over the machine.
	fb := curve.NewFixedBaseTableSized(g, 2<<uint(maxVars))
	srs := &SRS{MaxVars: maxVars, Tau: tau, G: g, Levels: make([][]curve.G1Affine, maxVars+1)}
	for k := 0; k <= maxVars; k++ {
		suffix := tau[maxVars-k:]
		eq := mle.EqWorkers(suffix, 0)
		srs.Levels[k] = fb.MulMany(eq.Evals)
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
// witness MSM polls ctx (nil means never cancelled). The quotient tables
// live in pooled arena scratch (no per-level allocation), the quotient
// construction and folds are chunked, and each level's witness MSM runs on
// the same budget.
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
	// Working copy of the evaluations in arena scratch (the fold below is
	// destructive); q shares a second scratch buffer across levels.
	work := parallel.GetScratch(t.Size())
	qBuf := parallel.GetScratch(t.Size() / 2)
	defer parallel.PutScratch(work)
	defer parallel.PutScratch(qBuf)

	src := t.Evals
	parallel.For(workers, len(src), func(lo, hi int) {
		copy(work[lo:hi], src[lo:hi])
	})

	cur := mle.FromEvals(work)
	proof := &OpeningProof{Qs: make([]curve.G1Affine, k)}
	for i := 0; i < k; i++ {
		half := cur.Size() / 2
		q := qBuf[:half]
		evals := cur.Evals
		parallel.For(workers, half, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				q[j].Sub(&evals[2*j+1], &evals[2*j])
			}
		})
		acc, err := s.msmRangeCtx(ctx, k-i-1, 0, q, workers)
		if err != nil {
			return ff.Element{}, nil, err
		}
		proof.Qs[i].FromJacobian(&acc)
		cur.FoldWorkers(&z[i], workers)
	}
	return cur.Evals[0], proof, nil
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

// CombineTables returns Σ coeffs[i]·tables[i] as a new table.
func CombineTables(tables []*mle.Table, coeffs []ff.Element) (*mle.Table, error) {
	return CombineTablesWorkers(tables, coeffs, 1)
}

// CombineTablesWorkers is CombineTables with a worker budget; entries are
// independent, so the combination chunks over the evaluation index. Within a
// chunk each output entry is one lazy-reduction inner product across the
// tables: the raw 512-bit products Σᵢ coeffsᵢ·tablesᵢ[j] accumulate
// unreduced and pay a single Montgomery reduction per entry instead of one
// per (table, entry) pair.
func CombineTablesWorkers(tables []*mle.Table, coeffs []ff.Element, workers int) (*mle.Table, error) {
	if len(tables) == 0 || len(tables) != len(coeffs) {
		return nil, fmt.Errorf("pcs: bad combination arity")
	}
	out := mle.New(tables[0].NumVars)
	for _, t := range tables {
		if t.NumVars != out.NumVars {
			return nil, fmt.Errorf("pcs: mixed arity in table combination")
		}
	}
	parallel.For(workers, out.Size(), func(lo, hi int) {
		cols := make([][]ff.Element, len(tables))
		for i, t := range tables {
			cols[i] = t.Evals
		}
		for j := lo; j < hi; j++ {
			// One accumulator gathers len(tables) 512-bit products
			// before its single Reduce; tables is a Go slice, so the
			// count stays below 2^63 — inside the 2^66-product window
			// (DESIGN.md §5).
			var acc ff.LazyAcc
			for i := range cols {
				acc.MulAcc(&coeffs[i], &cols[i][j])
			}
			out.Evals[j] = acc.Reduce()
		}
	})
	return out, nil
}
