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

// Build constructs the argument for the given wires, σ tables, and
// challenges. wires and sigmaTabs must have one table per column.
func Build(wires, sigmaTabs []*mle.Table, beta, gamma ff.Element) *Argument {
	return BuildWorkers(wires, sigmaTabs, beta, gamma, 1)
}

// BuildWorkers is Build with a worker budget (<= 0 means GOMAXPROCS). The
// numerator/denominator tables, the batched inversion (one Montgomery batch
// per chunk), ϕ, each product-tree level, and the index-mapped views all
// chunk over the row index; every intermediate is identical to the serial
// construction.
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
	parallel.For(workers, n, func(lo, hi int) {
		var base, id ff.Element
		for j := 0; j < k; j++ {
			wj, sj := wires[j].Evals, sigmaTabs[j].Evals
			nt, dt := a.NTabs[j].Evals, a.DTabs[j].Evals
			for x := lo; x < hi; x++ {
				// id_j(x) = j·N + x, computed inline instead of
				// materializing the identity table. Both β·id + (w+γ) and
				// β·σ + (w+γ) run through the fused multiply-add, halving
				// the reduction count of the table build.
				id.SetUint64(uint64(j*n + x))
				base.Add(&wj[x], &gamma)
				nt[x].MulAdd(&beta, &id, &base)
				dt[x].MulAdd(&beta, &sj[x], &base)
			}
		}
	})

	// ϕ = ΠN / ΠD; the inversion runs one Montgomery batch per chunk, with
	// its prefix-product table in arena scratch instead of a per-chunk
	// allocation.
	num := parallel.GetScratch(n)
	den := parallel.GetScratch(n)
	inv := parallel.GetScratch(n)
	defer parallel.PutScratch(num)
	defer parallel.PutScratch(den)
	defer parallel.PutScratch(inv)
	phi := mle.New(nv)
	parallel.For(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			num[x] = a.NTabs[0].Evals[x]
			den[x] = a.DTabs[0].Evals[x]
			for j := 1; j < k; j++ {
				num[x].Mul(&num[x], &a.NTabs[j].Evals[x])
				den[x].Mul(&den[x], &a.DTabs[j].Evals[x])
			}
		}
		ff.BatchInvertScratch(den[lo:hi], inv[lo:hi])
		for x := lo; x < hi; x++ {
			phi.Evals[x].Mul(&num[x], &den[x])
		}
	})
	a.Phi = phi

	// Product tree T of size 2N, built level by level; within a level every
	// node is independent.
	tEvals := make([]ff.Element, 2*n)
	parallel.For(workers, n, func(lo, hi int) {
		copy(tEvals[lo:hi], phi.Evals[lo:hi])
	})
	for width := n / 2; width >= 1; width /= 2 {
		// This level's nodes are T[n+off .. n+off+width) with children at
		// T[2·off .. 2·(off+width)).
		off := n - 2*width
		parallel.For(workers, width, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				tEvals[n+off+j].Mul(&tEvals[2*(off+j)], &tEvals[2*(off+j)+1])
			}
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
