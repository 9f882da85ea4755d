// Package mle implements dense multilinear-extension tables — the
// fundamental data structure of SumCheck-based ZKPs. A Table stores the 2^µ
// evaluations of a multilinear polynomial over the boolean hypercube,
// indexed x = Σ X_i·2^{i-1} (X₁ is the least-significant bit).
//
// With this convention, one SumCheck round folds X₁, so the evaluation pair
// {f(0,rest), f(1,rest)} occupies *adjacent* entries (f[2j], f[2j+1]) — the
// exact streaming layout of the paper's Fig. 1 and of the hardware's MLE
// Update units.
package mle

import (
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/parallel"
)

// Table is a dense MLE evaluation table of size 2^NumVars.
type Table struct {
	Evals   []ff.Element
	NumVars int
}

// New returns a zeroed table over numVars variables.
func New(numVars int) *Table {
	if numVars < 0 || numVars > 40 {
		panic(fmt.Sprintf("mle: unreasonable variable count %d", numVars))
	}
	return &Table{Evals: make([]ff.Element, 1<<uint(numVars)), NumVars: numVars}
}

// FromEvals wraps an evaluation slice (length must be a power of two).
func FromEvals(evals []ff.Element) *Table {
	n := len(evals)
	if n == 0 || n&(n-1) != 0 {
		panic("mle: evaluation count must be a nonzero power of two")
	}
	nv := 0
	for 1<<uint(nv) < n {
		nv++
	}
	return &Table{Evals: evals, NumVars: nv}
}

// Size returns the number of hypercube evaluations (2^NumVars).
func (t *Table) Size() int { return len(t.Evals) }

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	out := &Table{Evals: make([]ff.Element, len(t.Evals)), NumVars: t.NumVars}
	copy(out.Evals, t.Evals)
	return out
}

// Fold fixes X₁ = r, halving the table in place:
//
//	f'(x₂..x_µ) = f(0,x₂..) + r·(f(1,x₂..) − f(0,x₂..))
//
// This is the MLE Update of the paper. It panics on an empty table.
func (t *Table) Fold(r *ff.Element) {
	t.FoldWorkers(r, 1)
}

// FoldWorkers is Fold with a worker budget (<= 0 means GOMAXPROCS). The
// in-place update pattern races with itself when chunked (entry j is written
// while entry 2j is still being read by a lower chunk), so the parallel path
// folds into a pooled scratch buffer and copies back; the single-chunk path
// stays purely in place.
func (t *Table) FoldWorkers(r *ff.Element, workers int) {
	if t.NumVars == 0 {
		panic("mle: cannot fold a 0-variable table")
	}
	half := len(t.Evals) / 2
	if parallel.Workers(workers) == 1 || !parallel.WorthSplitting(half) {
		ff.FoldVec(t.Evals[:half], t.Evals, r)
	} else {
		dst := parallel.GetScratch(half)
		defer parallel.PutScratch(dst)
		foldInto(dst, t.Evals, r, workers)
		src := t.Evals
		parallel.For(workers, half, func(lo, hi int) {
			copy(src[lo:hi], dst[lo:hi])
		})
	}
	t.Evals = t.Evals[:half]
	t.NumVars--
}

// foldInto writes the r-fold of src (length 2m) into dst (length m):
// dst[j] = src[2j] + r·(src[2j+1] − src[2j]), through ff.FoldVec. dst
// must not alias src (except as the first half of src, which the serial
// path permits). The serial case calls the kernel directly rather than
// through parallel.For so that no closure is materialized — this is what
// keeps EvaluateWorkers allocation-free.
func foldInto(dst, src []ff.Element, r *ff.Element, workers int) {
	if parallel.Workers(workers) == 1 || !parallel.WorthSplitting(len(dst)) {
		ff.FoldVec(dst, src, r)
		return
	}
	parallel.For(workers, len(dst), func(lo, hi int) {
		ff.FoldVec(dst[lo:hi], src[2*lo:2*hi], r)
	})
}

// FoldInto writes the r-fold of src (length 2m) into dst (length m):
// dst[j] = src[2j] + r·(src[2j+1] − src[2j]) — the exact update
// FoldWorkers applies in place, through the same ff.FoldVec kernel, so a
// caller folding a source table into fresh storage gets bit-identical
// results. dst must not alias src (except as src's first half). The
// SumCheck prover uses this to materialize its working tables at HALF size
// on the first fold instead of cloning them full-size.
func FoldInto(dst, src []ff.Element, r *ff.Element, workers int) {
	if len(src) != 2*len(dst) {
		panic("mle: FoldInto length mismatch")
	}
	foldInto(dst, src, r, workers)
}

// Evaluate returns the multilinear extension evaluated at an arbitrary field
// point (len(point) must equal NumVars). The table is not modified.
func (t *Table) Evaluate(point []ff.Element) ff.Element {
	return t.EvaluateWorkers(point, 1)
}

// EvaluateWorkers is Evaluate with a worker budget (<= 0 means GOMAXPROCS).
// Instead of deep-cloning the table it folds into a pooled half-size scratch
// buffer and ping-pongs between two arena buffers from there, so repeated
// evaluations allocate nothing in steady state.
func (t *Table) EvaluateWorkers(point []ff.Element, workers int) ff.Element {
	if len(point) != t.NumVars {
		panic(fmt.Sprintf("mle: evaluate with %d coordinates on %d-var table", len(point), t.NumVars))
	}
	if t.NumVars == 0 {
		return t.Evals[0]
	}
	half := len(t.Evals) / 2
	bufA := parallel.GetScratch(half)
	defer parallel.PutScratch(bufA)
	foldInto(bufA, t.Evals, &point[0], workers)
	var bufB []ff.Element
	defer func() { parallel.PutScratch(bufB) }()
	cur, inA := bufA, true
	for i := 1; i < len(point); i++ {
		if bufB == nil {
			bufB = parallel.GetScratch(half / 2)
		}
		m := len(cur) / 2
		var dst []ff.Element
		if inA {
			dst = bufB[:m]
		} else {
			dst = bufA[:m]
		}
		foldInto(dst, cur, &point[i], workers)
		cur, inA = dst, !inA
	}
	return cur[0]
}

// Eq builds the eq(X, r) table in O(2^len(r)):
//
//	eq(x, r) = Π_i (x_i·r_i + (1-x_i)(1-r_i))
//
// This is the auxiliary polynomial f_r(X) of ZeroCheck, which the hardware
// builds on the fly with a dedicated product lane during round 1 (the Build
// MLE kernel).
func Eq(r []ff.Element) *Table {
	return EqWorkers(r, 1)
}

// EqWorkers is Eq with a worker budget (<= 0 means GOMAXPROCS). Each
// expansion step reads entry j and writes entries j and j+size, so the
// entries of one step are independent and the large trailing steps
// parallelize cleanly.
func EqWorkers(r []ff.Element, workers int) *Table {
	nv := len(r)
	t := New(nv)
	t.Evals[0] = ff.One()
	size := 1
	// Extend one variable at a time. Variable i has index weight 2^i, so the
	// i-th expansion writes the "X_i = 1" branch into the upper half of the
	// currently populated prefix.
	for i := 0; i < nv; i++ {
		ri := r[i]
		var oneMinus ff.Element
		oneE := ff.One()
		oneMinus.Sub(&oneE, &ri)
		evals, sz := t.Evals, size
		parallel.For(workers, size, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				v := evals[j]
				evals[j+sz].Mul(&v, &ri)
				evals[j].Mul(&v, &oneMinus)
			}
		})
		size *= 2
	}
	return t
}

// EqEval computes eq(a, b) = Π (a_i b_i + (1-a_i)(1-b_i)) for two field
// points of equal length without building a table.
func EqEval(a, b []ff.Element) ff.Element {
	if len(a) != len(b) {
		panic("mle: EqEval length mismatch")
	}
	res := ff.One()
	oneE := ff.One()
	var ab, oneA, oneB, term ff.Element
	for i := range a {
		ab.Mul(&a[i], &b[i])
		oneA.Sub(&oneE, &a[i])
		oneB.Sub(&oneE, &b[i])
		term.Mul(&oneA, &oneB)
		term.Add(&term, &ab)
		res.Mul(&res, &term)
	}
	return res
}
