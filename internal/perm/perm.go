// Package perm implements HyperPlonk's wire-identity (permutation) argument.
//
// Wire values live in k columns of N = 2^µ rows. A global permutation σ over
// the k·N positions encodes the circuit's copy constraints. With challenges
// β, γ the prover forms, per column j,
//
//	N_j(x) = w_j(x) + β·id_j(x) + γ      (numerator)
//	D_j(x) = w_j(x) + β·σ_j(x) + γ      (denominator)
//
// and the fraction ϕ(x) = Π_j N_j(x) / Π_j D_j(x). The permutation holds iff
// Π_x ϕ(x) = 1, which is proven with the Quarks-style product tree
//
//	T[0..N)   = ϕ (leaves)
//	T[N + j]  = T[2j]·T[2j+1]   for j < N−1
//	T[2N−1]   = 1
//
// committed as the (µ+1)-variable MLE v. The index-mapped views
// p₁(x) = T[2x], p₂(x) = T[2x+1], π(x) = T[N+x] satisfy
// π − p₁·p₂ ≡ 0 on the hypercube, and the x = N−1 instance doubles as the
// root check Π ϕ = 1 (because T[2N−1] = 1 forces π[N−1] = 1 = root·1).
// Combined with α·(ϕ·ΠD − ΠN) ≡ 0 this is exactly Table I's poly 21/23.
package perm

import (
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
)

// Permutation represents σ over k columns × N rows: Sigma[j][x] is the
// flattened position (column·N + row) that position (j, x) maps to.
type Permutation struct {
	Columns int
	Rows    int
	Sigma   [][]int
}

// Identity returns the identity permutation for k columns of n rows.
func Identity(k, n int) *Permutation {
	p := &Permutation{Columns: k, Rows: n, Sigma: make([][]int, k)}
	for j := 0; j < k; j++ {
		p.Sigma[j] = make([]int, n)
		for x := 0; x < n; x++ {
			p.Sigma[j][x] = j*n + x
		}
	}
	return p
}

// Validate checks that σ is a bijection over k·N positions.
func (p *Permutation) Validate() error {
	total := p.Columns * p.Rows
	seen := make([]bool, total)
	for j := range p.Sigma {
		if len(p.Sigma[j]) != p.Rows {
			return fmt.Errorf("perm: column %d has %d rows, want %d", j, len(p.Sigma[j]), p.Rows)
		}
		for _, t := range p.Sigma[j] {
			if t < 0 || t >= total {
				return fmt.Errorf("perm: target %d out of range", t)
			}
			if seen[t] {
				return fmt.Errorf("perm: target %d repeated — not a bijection", t)
			}
			seen[t] = true
		}
	}
	return nil
}

// AddCycle links the given flattened positions into a copy-constraint cycle
// (rotating their σ targets).
func (p *Permutation) AddCycle(positions []int) {
	if len(positions) < 2 {
		return
	}
	n := p.Rows
	for i, pos := range positions {
		next := positions[(i+1)%len(positions)]
		p.Sigma[pos/n][pos%n] = next
	}
}

// IDTable returns id_j as an MLE: id_j[x] = j·N + x encoded as a field
// element. It is multilinear in x by construction.
func IDTable(j, numVars int) *mle.Table {
	n := 1 << uint(numVars)
	t := mle.New(numVars)
	for x := 0; x < n; x++ {
		t.Evals[x].SetUint64(uint64(j*n + x))
	}
	return t
}

// IDEval evaluates ĩd_j at an arbitrary point r without building the table:
// j·N + Σ r_i·2^{i-1}.
func IDEval(j int, r []ff.Element) ff.Element {
	n := uint64(1) << uint(len(r))
	var out ff.Element
	out.SetUint64(uint64(j) * n)
	for i := range r {
		var w ff.Element
		w.SetUint64(uint64(1) << uint(i))
		w.Mul(&w, &r[i])
		out.Add(&out, &w)
	}
	return out
}

// SigmaTables materializes σ_j as MLE tables with the same encoding as
// IDTable. These are preprocessed (committed in the index).
func SigmaTables(p *Permutation, numVars int) []*mle.Table {
	if p.Rows != 1<<uint(numVars) {
		panic("perm: row count does not match numVars")
	}
	out := make([]*mle.Table, p.Columns)
	for j := 0; j < p.Columns; j++ {
		t := mle.New(numVars)
		for x := 0; x < p.Rows; x++ {
			t.Evals[x].SetUint64(uint64(p.Sigma[j][x]))
		}
		out[j] = t
	}
	return out
}

// Argument holds everything the PermCheck SumCheck consumes.
type Argument struct {
	Beta, Gamma ff.Element
	// NTabs and DTabs are the per-column numerators and denominators (the
	// intermediate N_1..k / D_1..k MLEs of the paper, produced in hardware by
	// the Permutation Quotient Generator).
	NTabs, DTabs []*mle.Table
	// Phi = ΠN / ΠD, computed with batched modular inversion.
	Phi *mle.Table
	// V is the (µ+1)-variable product-tree MLE (committed).
	V *mle.Table
	// Pi, P1, P2 are the µ-variable index views of V.
	Pi, P1, P2 *mle.Table
}

// BuildWorkers constructs the argument for the given wires, σ tables, and
// challenges on a worker budget (<= 0 means GOMAXPROCS); wires and
// sigmaTabs must have one table per column. The numerator/denominator
// tables, ϕ, each product-tree level, and the index-mapped views all chunk
// over the row index, and their products run on the ff.Lanes rows a block
// of at most blockLen values at a time; the batched inversion runs one
// Montgomery batch per chunk. Field arithmetic is exact, so every table is
// the same on every budget.
func BuildWorkers(wires, sigmaTabs []*mle.Table, beta, gamma ff.Element, workers int) *Argument {
	k := len(wires)
	if k == 0 || len(sigmaTabs) != k {
		panic("perm: column count mismatch")
	}
	nv := wires[0].NumVars
	n := 1 << uint(nv)

	a := &Argument{Beta: beta, Gamma: gamma}
	a.NTabs = make([]*mle.Table, k)
	a.DTabs = make([]*mle.Table, k)
	for j := 0; j < k; j++ {
		a.NTabs[j] = mle.New(nv)
		a.DTabs[j] = mle.New(nv)
	}
	phi := mle.New(nv)
	tEvals := make([]ff.Element, 2*n)
	// ΠD and the inversion's prefix products live in arena scratch; ϕ's
	// table holds ΠN until the inversion.
	den := parallel.GetScratch(n)
	inv := parallel.GetScratch(n)
	defer parallel.PutScratch(den)
	defer parallel.PutScratch(inv)
	var step ff.Element
	step.SetUint64(ff.LaneCount)
	step.Mul(&step, &beta)
	betaL, gammaL, stepL := ff.NewLaneConst(&beta), ff.NewLaneConst(&gamma), ff.NewLaneConst(&step)
	parallel.For(workers, n, func(lo, hi int) {
		// ids[j] holds β·id_j(x) = β·(j·N + x) for the eight rows of the
		// next lane group, and advances by 8β per group.
		ids := make([]ff.Lanes, k)
		for j := range ids {
			var v [ff.LaneCount]ff.Element
			for l := range v {
				v[l].SetUint64(uint64(j*n + lo + l))
				v[l].Mul(&v[l], &beta)
			}
			ff.PackLanes(ids[j:j+1], v[:])
		}
		var gam, w, nl, dl, nProd, dProd [blockGroups]ff.Lanes
		for i := range gam {
			gam[i] = gammaL.Row()[0]
		}
		for b := lo; b < hi; b += blockLen {
			m := min(blockLen, hi-b)
			g := laneGroups(m)
			for j := 0; j < k; j++ {
				// N_j = β·id_j + (w_j + γ), D_j = β·σ_j + (w_j + γ).
				ff.PackLanes(w[:g], wires[j].Evals[b:b+m])
				ff.AddLanes(w[:g], w[:g], gam[:g])
				for i := range g {
					ff.AddLanes(nl[i:i+1], ids[j:j+1], w[i:i+1])
					ff.AddLanes(ids[j:j+1], ids[j:j+1], stepL.Row())
				}
				ff.PackLanes(dl[:g], sigmaTabs[j].Evals[b:b+m])
				ff.ScalarMulLanes(dl[:g], dl[:g], betaL.Row())
				ff.AddLanes(dl[:g], dl[:g], w[:g])
				ff.UnpackLanes(a.NTabs[j].Evals[b:b+m], nl[:g])
				ff.UnpackLanes(a.DTabs[j].Evals[b:b+m], dl[:g])
				if j == 0 {
					copy(nProd[:g], nl[:g])
					copy(dProd[:g], dl[:g])
				} else {
					ff.MulLanes(nProd[:g], nProd[:g], nl[:g])
					ff.MulLanes(dProd[:g], dProd[:g], dl[:g])
				}
			}
			ff.UnpackLanes(phi.Evals[b:b+m], nProd[:g])
			ff.UnpackLanes(den[b:b+m], dProd[:g])
		}
		// ϕ = ΠN / ΠD.
		ff.BatchInvertScratch(den[lo:hi], inv[lo:hi])
		for b := lo; b < hi; b += blockLen {
			m := min(blockLen, hi-b)
			g := laneGroups(m)
			ff.PackLanes(nProd[:g], phi.Evals[b:b+m])
			ff.PackLanes(dProd[:g], den[b:b+m])
			ff.MulLanes(nProd[:g], nProd[:g], dProd[:g])
			ff.UnpackLanes(phi.Evals[b:b+m], nProd[:g])
		}
		copy(tEvals[lo:hi], phi.Evals[lo:hi])
	})
	a.Phi = phi

	// Product tree T of size 2N, built level by level; within a level every
	// node is independent.
	for width := n / 2; width >= 1; width /= 2 {
		// This level's nodes are T[n+off .. n+off+width) with children at
		// T[2·off .. 2·(off+width)).
		off := n - 2*width
		parallel.For(workers, width, func(lo, hi int) {
			mulPairs(tEvals[n+off+lo:n+off+hi], tEvals[2*(off+lo):2*(off+hi)])
		})
	}
	tEvals[2*n-1] = ff.One()
	a.V = mle.FromEvals(tEvals)

	// Views.
	pi := make([]ff.Element, n)
	p1 := make([]ff.Element, n)
	p2 := make([]ff.Element, n)
	parallel.For(workers, n, func(lo, hi int) {
		copy(pi[lo:hi], tEvals[n+lo:n+hi])
		for x := lo; x < hi; x++ {
			p1[x] = tEvals[2*x]
			p2[x] = tEvals[2*x+1]
		}
	})
	a.Pi = mle.FromEvals(pi)
	a.P1 = mle.FromEvals(p1)
	a.P2 = mle.FromEvals(p2)
	return a
}

// DropCheckTables releases every table the argument only needs through the
// PermCheck ZeroCheck — the per-column numerators/denominators, ϕ, and the
// π/p₁/p₂ views. The committed product tree V (and the challenges) survive:
// the remaining protocol steps evaluate and open only V. The prover calls
// this once the PermCheck SumCheck stops reading them, shedding ~(2k+4)·N
// field elements at the peak step; safe because the argument owns every
// buffer BuildWorkers allocated.
func (a *Argument) DropCheckTables() {
	a.NTabs, a.DTabs = nil, nil
	a.Phi = nil
	a.Pi, a.P1, a.P2 = nil, nil, nil
}

// Root returns the grand product Π_x ϕ(x) (T[2N−2]).
func (a *Argument) Root() ff.Element {
	return a.V.Evals[len(a.V.Evals)-2]
}

// ViewPoints returns the four points of the committed (µ+1)-var MLE v whose
// evaluations reconstruct π(r), p₁(r), p₂(r), ϕ(r):
//
//	π(r)  = ṽ(r, 1)    p₁(r) = ṽ(0, r)    p₂(r) = ṽ(1, r)    ϕ(r) = ṽ(r, 0)
func ViewPoints(r []ff.Element) (piPt, p1Pt, p2Pt, phiPt []ff.Element) {
	oneE := ff.One()
	zeroE := ff.Zero()
	piPt = append(append([]ff.Element(nil), r...), oneE)
	phiPt = append(append([]ff.Element(nil), r...), zeroE)
	p1Pt = append([]ff.Element{zeroE}, r...)
	p2Pt = append([]ff.Element{oneE}, r...)
	return
}

// blockGroups is how many ff.Lanes values a block of BuildWorkers packs
// per row, and blockLen the block's length in values.
const (
	blockGroups = 8
	blockLen    = blockGroups * ff.LaneCount
)

// laneGroups is the number of ff.Lanes values m values fill.
func laneGroups(m int) int { return (m + ff.LaneCount - 1) / ff.LaneCount }

// mulPairs sets z[j] = x[2j]·x[2j+1] on the ff.Lanes rows, a block of at
// most blockLen pairs at a time.
func mulPairs(z, x []ff.Element) {
	var even, odd [blockGroups]ff.Lanes
	for lo := 0; lo < len(z); lo += blockLen {
		m := min(blockLen, len(z)-lo)
		g := laneGroups(m)
		ff.PackLanesPairs(even[:g], odd[:g], x[2*lo:2*(lo+m)])
		ff.MulLanes(even[:g], even[:g], odd[:g])
		ff.UnpackLanes(z[lo:lo+m], even[:g])
	}
}
