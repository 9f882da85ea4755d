package curve

import (
	"math/big"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// GLV endomorphism. BLS12-381 (j-invariant 0) has the efficiently computable
// endomorphism φ(x, y) = (βx, y) for a cube root of unity β in Fp; on the
// G1 subgroup φ acts as scalar multiplication by the cube root of unity λ in
// Fr (see ff.SplitGLV). Which of the two primitive roots {β, β²} matches the
// λ that ff derives is fixed at init by evaluating both against the
// generator: φ(G) must equal λ·G.
var (
	endoBeta   fp.Element
	endoLambda *big.Int
)

// initEndo derives and validates β. Called from g1.go's init (not a file
// init of its own: it needs the generator, and endo.go sorts before g1.go).
func initEndo() {
	lam := ff.Lambda()
	endoLambda = lam
	var lamG G1Jac
	g := GeneratorJac()
	lamG.ScalarMulBig(&g, lam)
	var want G1Affine
	want.FromJacobian(&lamG)

	beta := fp.ThirdRootOne()
	for try := 0; ; try++ {
		if try == 2 {
			panic("curve: no cube root of unity matches λ on the generator")
		}
		var cand G1Affine
		cand.X.Mul(&g1Gen.X, &beta)
		cand.Y = g1Gen.Y
		if cand.Equal(&want) {
			endoBeta = beta
			break
		}
		beta.Square(&beta)
	}
}

// Endo sets p = φ(q) = (β·q.X, q.Y) and returns p. φ(q) = λ·q for subgroup
// points, at the cost of one field multiplication.
func (p *G1Affine) Endo(q *G1Affine) *G1Affine {
	p.X.Mul(&q.X, &endoBeta)
	p.Y = q.Y
	p.Infinity = q.Infinity
	return p
}

// IsInSubgroup reports whether p lies in the order-r subgroup G1 (the
// cofactor is ≈ 2^125). It is Scott's test (ePrint 2021/1130), P ∈ G1 iff
// φ²(P) = [−z²]P: ff's λ is the integer z² − 1 and φ² + φ + 1 = 0 on the
// whole curve, so φ − [λ] = −(φ² − [−z²]) and φ(P) = [λ]P is the same test,
// a 128-bit scalar multiplication where [r]P would take 255 bits.
func (p *G1Affine) IsInSubgroup() bool {
	if p.Infinity {
		return true
	}
	var pj, lamP, phiP G1Jac
	var phi G1Affine
	pj.FromAffine(p)
	lamP.ScalarMulBig(&pj, endoLambda)
	phiP.FromAffine(phi.Endo(p))
	return lamP.Equal(&phiP)
}

// EndoPoints returns the φ-table for a point set as x-coordinates only —
// φ(P) = (βx, y) shares y with P, so βx is all the MSM needs and the table
// costs 48 instead of 96 bytes per point. workers <= 0 means GOMAXPROCS. MSM
// callers that reuse a base set (the PCS commitment bases) precompute this
// once and pass it to MSMEndoWorkersCtx so no βx is ever recomputed per
// call; pcs.SRS caches it per level.
func EndoPoints(points []G1Affine, workers int) []fp.Element {
	out := make([]fp.Element, len(points))
	EndoPointsInto(out, points, workers)
	return out
}

// EndoPointsInto writes the φ-table for points into dst (len(dst) must be
// len(points)). The chunk-streamed MSM paths use it to build the βx table
// for one basis chunk in arena scratch instead of allocating a table per
// chunk.
func EndoPointsInto(dst []fp.Element, points []G1Affine, workers int) {
	if len(dst) != len(points) {
		panic("curve: endo table size mismatch")
	}
	parallel.For(workers, len(points), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i].Mul(&points[i].X, &endoBeta)
		}
	})
}
