// Package sumcheck implements the SumCheck protocol over composite
// multilinear polynomials: the prover convinces a verifier that
// Σ_{x∈{0,1}^µ} f(x) = C, where f is a sum of products of multilinear
// polynomials (poly.Composite).
//
// The prover here is the paper's "CPU baseline": a multi-threaded
// implementation whose inner loop is exactly the hardware dataflow of
// Fig. 1 — per evaluation pair, extend each constituent MLE to the d+1
// points 0..d, multiply extensions across each term, accumulate down the
// table, hash the round evaluations for a challenge, and fold every table.
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

// Assignment binds a composite polynomial to concrete MLE tables: Tables[i]
// holds the evaluations of Composite.VarNames[i].
type Assignment struct {
	Composite *poly.Composite
	Tables    []*mle.Table
}

// NewAssignment validates table arity and sizes.
func NewAssignment(c *poly.Composite, tables []*mle.Table) (*Assignment, error) {
	if len(tables) != c.NumVars() {
		return nil, fmt.Errorf("sumcheck: %d tables for %d constituents", len(tables), c.NumVars())
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("sumcheck: composite has no constituents")
	}
	nv := tables[0].NumVars
	for i, t := range tables {
		if t.NumVars != nv {
			return nil, fmt.Errorf("sumcheck: table %d has %d vars, want %d", i, t.NumVars, nv)
		}
	}
	return &Assignment{Composite: c, Tables: tables}, nil
}

// NumVars returns µ, the number of SumCheck rounds.
func (a *Assignment) NumVars() int { return a.Tables[0].NumVars }

// SumAll computes the true hypercube sum Σ_x f(x) directly (O(N·terms)).
func (a *Assignment) SumAll() ff.Element {
	n := a.Tables[0].Size()
	var sum ff.Element
	assign := make([]ff.Element, len(a.Tables))
	for x := 0; x < n; x++ {
		for i, t := range a.Tables {
			assign[i] = t.Evals[x]
		}
		v := a.Composite.Evaluate(assign)
		sum.Add(&sum, &v)
	}
	return sum
}

// Clone deep-copies the assignment (the prover folds tables in place).
func (a *Assignment) Clone() *Assignment {
	tabs := make([]*mle.Table, len(a.Tables))
	for i, t := range a.Tables {
		tabs[i] = t.Clone()
	}
	return &Assignment{Composite: a.Composite, Tables: tabs}
}

// Proof is a transcript of the SumCheck interaction.
//
// Round polynomials are stored COMPRESSED: round i's degree-d polynomial is
// represented by the d evaluations s_i(0), s_i(2), ..., s_i(d). The verifier
// reconstructs s_i(1) from the running claim (s_i(0)+s_i(1) must equal it),
// which both shrinks the proof by one scalar per round and makes the
// consistency check implicit — the standard SumCheck wire optimization the
// paper's 4–5 KB proof sizes assume. A ZeroCheck's rounds carry the eq-free
// factor instead (ZeroCheckProof).
type Proof struct {
	// Claim is the sum the prover started from. It is not a message: the
	// verifier supplies its own claim (Verify), so a wire format need not
	// carry it.
	Claim ff.Element
	// RoundEvals[i] holds [s_i(0), s_i(2), ..., s_i(d)] (d entries).
	RoundEvals [][]ff.Element
	// FinalEvals holds each constituent MLE's value at the final challenge
	// point (to be verified externally, e.g. by PCS openings).
	FinalEvals []ff.Element
}

// Config controls the prover.
type Config struct {
	// Workers is the worker budget for the per-round scan, the table folds,
	// and the working-copy setup. Zero means GOMAXPROCS.
	Workers int

	// ReleaseSources, when non-nil, is called exactly once, immediately
	// after the first fold materializes the prover's half-size working
	// tables. From that point the prover never reads the assignment's
	// original tables again, so a caller that owns them may free or spill
	// them in the callback — the HyperPlonk prover drops the (2k+4)·N
	// PermCheck tables here, mid-SumCheck, instead of holding
	// them to the final round. Never called when the assignment has zero
	// variables (no folds happen; the final evaluations then read the
	// originals). Purely a residency hook: it must not mutate table values.
	ReleaseSources func()
}

func (c Config) workers() int { return parallel.Workers(c.Workers) }

// Prove runs the SumCheck prover, leaving the assignment's tables untouched
// and appending all messages to the transcript. The returned challenges are
// the verifier's random point r₁..r_µ.
//
// The prover's working tables live in the shared arena (parallel.GetScratch)
// at HALF the assignment's size: round 0 scans the caller's tables read-only,
// and the first fold materializes the working tables directly (see lazyWork),
// so repeated proofs of same-sized circuits reuse the same half-table buffers.
func Prove(tr *transcript.Transcript, a *Assignment, claim ff.Element, cfg Config) (*Proof, []ff.Element, error) {
	return ProveCtx(nil, tr, a, claim, cfg)
}

// ProveCtx is Prove with mid-round cancellation: the pair scan polls ctx
// every few thousand pairs and each round boundary checks it, so a cancel
// lands in milliseconds instead of waiting out the remaining rounds. ctx
// may be nil (never cancelled); the successful proof is identical to Prove.
func ProveCtx(ctx context.Context, tr *transcript.Transcript, a *Assignment, claim ff.Element, cfg Config) (*Proof, []ff.Element, error) {
	w := cfg.workers()
	lw := lazyWorkingCopy(a, cfg)
	defer lw.release()
	work := lw.work

	mu := work.NumVars()
	d := work.Composite.Degree()
	prog := work.Composite.Compile()

	proof := &Proof{Claim: claim, RoundEvals: make([][]ff.Element, 0, mu)}
	challenges := make([]ff.Element, 0, mu)

	tr.AppendUint64("sumcheck/numvars", uint64(mu))
	tr.AppendUint64("sumcheck/degree", uint64(d))
	tr.AppendScalar("sumcheck/claim", &claim)

	for round := 0; round < mu; round++ {
		compressed := roundPolynomialCompressed(ctx, work, prog, d, nil, w)
		if ctx != nil && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		tr.AppendScalars("sumcheck/round", compressed)
		r := tr.ChallengeScalar("sumcheck/challenge")
		challenges = append(challenges, r)
		lw.fold(&r)
		proof.RoundEvals = append(proof.RoundEvals, compressed)
	}

	proof.FinalEvals = make([]ff.Element, len(work.Tables))
	for i, t := range work.Tables {
		proof.FinalEvals[i] = t.Evals[0]
	}
	return proof, challenges, nil
}

// lazyWork is the prover's destructive working state, materialized at HALF
// the assignment's size. The prover used to clone every table full-size
// before round 0; but the round-0 scan only READS the tables, and the first
// fold was going to shrink them to half anyway — so work starts out aliasing
// the caller's tables, and the first challenge folds each source directly
// into a half-size arena buffer (mle.FoldInto — the exact FoldWorkers
// update, so every round polynomial and proof byte is identical to the
// cloning construction). Rounds after the first fold in place as before.
// The caller's tables are never written; release returns the arena buffers.
//
// Halving the prover's scratch footprint matters most under a memory budget
// (zkphire.WithMemoryBudget), where the SumCheck working set over the
// full-width wire/permutation tables dominates the prove-time peak.
type lazyWork struct {
	work       *Assignment  // aliases the caller's tables until the first fold
	src        []*mle.Table // the caller's tables (read-only)
	scratch    [][]ff.Element
	workers    int
	releaseSrc func() // Config.ReleaseSources; fired once after the first fold
}

func lazyWorkingCopy(a *Assignment, cfg Config) *lazyWork {
	tabs := make([]*mle.Table, len(a.Tables))
	copy(tabs, a.Tables)
	return &lazyWork{
		work:       &Assignment{Composite: a.Composite, Tables: tabs},
		src:        a.Tables,
		workers:    cfg.workers(),
		releaseSrc: cfg.ReleaseSources,
	}
}

// fold applies a round challenge: the first call folds the sources into
// fresh half-size working tables (then tells the caller the sources are no
// longer needed), later calls fold those in place.
func (l *lazyWork) fold(r *ff.Element) {
	if l.scratch == nil {
		l.scratch = make([][]ff.Element, len(l.src))
		for i, t := range l.src {
			buf := parallel.GetScratch(t.Size() / 2)
			l.scratch[i] = buf
			mle.FoldInto(buf, t.Evals, r, l.workers)
			l.work.Tables[i] = mle.FromEvals(buf)
		}
		l.src = nil
		if l.releaseSrc != nil {
			l.releaseSrc()
			l.releaseSrc = nil
		}
		return
	}
	for _, t := range l.work.Tables {
		t.FoldWorkers(r, l.workers)
	}
}

func (l *lazyWork) release() {
	for _, buf := range l.scratch {
		parallel.PutScratch(buf)
	}
	l.scratch = nil
}

// roundPolynomialCompressed computes the COMPRESSED round polynomial
// [s(0), s(2), ..., s(d)] over the current tables — s(1) is never computed,
// because the wire format drops it (the verifier reconstructs it from the
// running claim), which saves one of the d+1 composite evaluations per pair.
//
// The scan is chunked over the pair index through the shared engine, each
// chunk running scanLanes, and the merge adds partial accumulators in
// ascending chunk order, so the round polynomial is identical for every
// budget and for both ff.Lanes bodies (and bit-identical to the tree-walk
// evaluation, since field arithmetic is exact).
//
// When weights is non-nil (the eq-factorized ZeroCheck's suffix table,
// indexed by pair), every program value is multiplied by weights[j] before
// accumulating.
// A non-nil ctx is polled once per block; once it fires the scan returns
// garbage, so the caller must check ctx.Err() and discard the result
// (ProveCtx does).
func roundPolynomialCompressed(ctx context.Context, a *Assignment, prog *poly.Program, d int, weights []ff.Element, workers int) []ff.Element {
	half := a.Tables[0].Size() / 2
	nPts := d // t = 0, 2, ..., d
	if nPts < 1 {
		nPts = 1
	}

	return parallel.MapReduce(workers, half, func(lo, hi int) []ff.Element {
		acc := make([]ff.Element, nPts)
		scanLanes(ctx, a, prog, d, weights, lo, hi, acc)
		return acc
	}, func(a, b []ff.Element) []ff.Element {
		for t := range a {
			a[t].Add(&a[t], &b[t])
		}
		return a
	})
}

// walkPoints runs accumulate at t = 0, 2, ..., d (slot 0, 1, ..., d−1),
// advancing the extensions with step between points; the skipped t = 1 is
// bridged by stepping twice.
func walkPoints(d int, step func(), accumulate func(slot int)) {
	accumulate(0)
	if d >= 2 {
		step()
		step()
		accumulate(1)
		for t := 3; t <= d; t++ {
			step()
			accumulate(t - 1)
		}
	}
}

// laneArena recycles scanLanes' register files.
var laneArena parallel.Arena[ff.Lanes]

// scanLanes adds pairs [lo, hi)'s contributions to acc (one sum per point
// t = 0, 2, ..., d) on the ff.Lanes rows, a block of poly.BlockWidth pairs
// at a time, pair j of a block in lane j mod 8 of value j/8 of every row.
// A block's a0 = tab[2j] and delta = tab[2j+1] − tab[2j] rows are packed
// once; the extensions then advance across the points by lane adds (the
// skipped t=1 is bridged by adding the delta twice), and at each point the
// compiled program runs over the block (poly.EvalLanes) — the paper's
// Fig. 1 dataflow. Each point's values (times the packed weights, for a
// ZeroCheck) are lane-added into its row of sums, which each chunk halves
// down to one Lanes value and adds lane by lane into acc.
//
// A chunk whose pair count is not a multiple of eight ends in a partial
// value. Its dead lanes are packed as zero, but the program still adds the
// composite's constant term there, so they are never summed: a ZeroCheck's
// weights are zero in them, and a plain SumCheck multiplies that value by
// a mask of ones over its live lanes.
func scanLanes(ctx context.Context, a *Assignment, prog *poly.Program, d int, weights []ff.Element, lo, hi int, acc []ff.Element) {
	const bw, gw = poly.BlockWidth, poly.LaneRows
	if lo >= hi {
		return
	}
	nv := len(a.Tables)
	nPts := len(acc)
	// The register file (its first nv rows are the extensions), the delta
	// rows, the program values, the packed weights, and one row of sums
	// per point.
	buf := laneArena.Get((prog.NumRegs + nv + 2 + nPts) * gw)
	defer laneArena.Put(buf)
	regs := buf[:prog.NumRegs*gw]
	deltas := buf[prog.NumRegs*gw : (prog.NumRegs+nv)*gw]
	vals := buf[(prog.NumRegs+nv)*gw : (prog.NumRegs+nv+1)*gw]
	w := buf[(prog.NumRegs+nv+1)*gw : (prog.NumRegs+nv+2)*gw]
	sums := buf[(prog.NumRegs+nv+2)*gw:]
	clear(sums)
	for b0 := lo; b0 < hi; b0 += bw {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		n := min(bw, hi-b0)
		ng := (n + ff.LaneCount - 1) / ff.LaneCount
		var mask []ff.Lanes
		if live := n % ff.LaneCount; weights == nil && live != 0 {
			var ones [ff.LaneCount]ff.Element
			for l := range live {
				ones[l] = ff.One()
			}
			mask = w[:1] // a plain SumCheck leaves the weights row free
			ff.PackLanes(mask, ones[:live])
		}
		accumulate := func(slot int) {
			prog.EvalLanes(regs, ng, vals)
			if weights != nil {
				ff.MulLanes(vals[:ng], vals[:ng], w[:ng])
			} else if mask != nil {
				ff.MulLanes(vals[ng-1:ng], vals[ng-1:ng], mask)
			}
			s := sums[slot*gw : slot*gw+ng]
			ff.AddLanes(s, s, vals[:ng])
		}
		step := func() {
			for v := 0; v < nv; v++ {
				ext := regs[v*gw : v*gw+ng]
				ff.AddLanes(ext, ext, deltas[v*gw:v*gw+ng])
			}
		}
		for v := 0; v < nv; v++ {
			ext, dv := regs[v*gw:v*gw+ng], deltas[v*gw:v*gw+ng]
			ff.PackLanesPairs(ext, dv, a.Tables[v].Evals[2*b0:2*(b0+n)])
			ff.SubLanes(dv, dv, ext)
		}
		if weights != nil {
			ff.PackLanes(w[:ng], weights[b0:b0+n])
		}
		walkPoints(d, step, accumulate)
	}
	for t := range acc {
		s := sums[t*gw : (t+1)*gw]
		for h := gw / 2; h >= 1; h /= 2 { // gw is a power of two
			ff.AddLanes(s[:h], s[:h], s[h:2*h])
		}
		var out [ff.LaneCount]ff.Element
		ff.UnpackLanes(out[:], s[:1])
		for l := range out {
			acc[t].Add(&acc[t], &out[l])
		}
	}
}

// RoundPolynomial computes the compressed round polynomial
// [s(0), s(2), ..., s(d)] for the assignment's current tables on the given
// worker budget, compiling the composite on first use. Exposed for the
// benchmark's sumcheck.round18_* metrics (bench/sweep.go); the prover
// calls the same scan internally.
func RoundPolynomial(a *Assignment, workers int) []ff.Element {
	prog := a.Composite.Compile()
	return roundPolynomialCompressed(nil, a, prog, a.Composite.Degree(), nil, parallel.Workers(workers))
}

// Verify replays the verifier side of the transcript from the verifier's
// own claim; proof.Claim is not read. It checks each round's consistency
// s_i(0)+s_i(1) = previous claim and returns the challenge point and the
// value the composite must take there. The caller must still confirm that
// value against trusted constituent evaluations (FinalCheck or PCS
// openings).
func Verify(tr *transcript.Transcript, c *poly.Composite, numVars int, claim ff.Element, proof *Proof) ([]ff.Element, ff.Element, error) {
	d := c.Degree()
	k := d + 1
	if len(proof.RoundEvals) != numVars {
		return nil, ff.Element{}, fmt.Errorf("sumcheck: %d rounds, want %d", len(proof.RoundEvals), numVars)
	}

	tr.AppendUint64("sumcheck/numvars", uint64(numVars))
	tr.AppendUint64("sumcheck/degree", uint64(d))
	tr.AppendScalar("sumcheck/claim", &claim)

	challenges := make([]ff.Element, 0, numVars)
	for round := 0; round < numVars; round++ {
		compressed := proof.RoundEvals[round]
		if len(compressed) != k-1 {
			return nil, ff.Element{}, fmt.Errorf("sumcheck: round %d has %d evals, want %d", round, len(compressed), k-1)
		}
		// Reconstruct s(1) from the running claim: the round identity
		// s(0) + s(1) = claim is enforced by construction.
		evals := DecompressRound(compressed, &claim)
		tr.AppendScalars("sumcheck/round", compressed)
		r := tr.ChallengeScalar("sumcheck/challenge")
		challenges = append(challenges, r)
		claim = ff.EvalFromPoints(evals, &r)
	}
	return challenges, claim, nil
}

// FinalCheck confirms that claimed constituent evaluations reproduce the
// verifier's final claim. In a full protocol the evaluations come from PCS
// openings; standalone tests use the prover's FinalEvals.
func FinalCheck(c *poly.Composite, finalEvals []ff.Element, want *ff.Element) error {
	if len(finalEvals) != c.NumVars() {
		return fmt.Errorf("sumcheck: %d final evals for %d constituents", len(finalEvals), c.NumVars())
	}
	got := c.Evaluate(finalEvals)
	if !got.Equal(want) {
		return fmt.Errorf("sumcheck: final evaluation mismatch")
	}
	return nil
}

// DecompressRound reconstructs the full evaluation vector from a compressed
// round and the running claim: s(1) = claim − s(0).
func DecompressRound(compressed []ff.Element, claim *ff.Element) []ff.Element {
	out := make([]ff.Element, len(compressed)+1)
	out[0] = compressed[0]
	out[1].Sub(claim, &compressed[0])
	copy(out[2:], compressed[1:])
	return out
}

// CountMuls returns the number of modular multiplications one full SumCheck
// over 2^numVars gates performs with this composite — the analytic workload
// measure shared with the hardware and CPU models.
func CountMuls(c *poly.Composite, numVars int) uint64 {
	k := uint64(c.Degree() + 1)
	var mulsPerEntry uint64
	for _, t := range c.Terms {
		perPoint := uint64(0)
		for _, f := range t.Factors {
			perPoint += uint64(f.Power) // power chain + product merge
		}
		mulsPerEntry += k * perPoint
	}
	// Folding: one multiplication per surviving entry per constituent.
	foldPerPair := uint64(c.NumVars())
	var total uint64
	pairs := uint64(1) << uint(numVars-1)
	for round := 0; round < numVars; round++ {
		total += pairs * (mulsPerEntry + foldPerPair)
		pairs /= 2
	}
	return total
}
