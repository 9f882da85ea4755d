package curve

import (
	"context"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// Pippenger MSM over the GLV endomorphism with signed bucket digits.
//
// Each 255-bit scalar k is decomposed as k ≡ ±k₁ + λ·(±k₂) (mod r) with
// k₁, k₂ < 2^127 (ff.SplitGLV); the MSM then runs over the doubled point
// set {Pᵢ, φ(Pᵢ)} with half-width scalars, halving the Pippenger window
// count. Digits are recoded into the signed range [−2^(c−1), 2^(c−1)], so a
// width-c window needs 2^(c−1) buckets instead of 2^c−1 — negative digits
// add −P, and affine negation is a single fp.Neg of the y-coordinate. Both
// halvings together shrink the bucket state and the cross-window
// running-sum reduction by ~4× and let the same cache budget carry a wider
// window.
//
// This is the software ground truth for the zkPHIRE MSM unit model; the
// structure (windows of width c, signed buckets, running-sum aggregation,
// cross-window doubling) is the same computation the hardware performs.

// Scratch arenas for the MSM working state (bucket tables, occupancy maps,
// batch-affine queues, digit decompositions). Pooling them keeps repeated
// proofs allocation-free in steady state.
var (
	jacArena   parallel.Arena[G1Jac]
	fpArena    parallel.Arena[fp.Element]
	pairArena  parallel.Arena[affPair]
	pendArena  parallel.Arena[pendOp]
	boolArena  parallel.Arena[bool]
	int32Arena parallel.Arena[int32]
	splitArena parallel.Arena[glvSplit]
)

// pendOp is a deferred bucket addition: an add that found its bucket already
// in the batch-affine queue parks here (with its sign-adjusted coordinates)
// until the next flush empties the queue, so a collision never forces an
// early flush of a short batch. During a drain round two parked additions
// aimed at the same bucket are PAIR-MERGED — summed with each other through
// the same shared batch inversion, since P₁+P₂ needs no bucket state — so a
// cluster of k same-bucket additions tree-reduces in ⌈log₂k⌉ rounds instead
// of limping through one per round. dead marks an entry annihilated by a
// P + (−P) merge.
type pendOp struct {
	x, y fp.Element
	b    int32
	dead bool
}

// glvSplit is one scalar's GLV decomposition: the two half-width magnitudes
// and their signs.
type glvSplit struct {
	k1, k2     [2]uint64
	neg1, neg2 bool
}

// affPair is a bucket's affine coordinates, exactly 96 bytes with X and Y on
// adjacent cache lines: the accumulation loop's random bucket accesses then
// touch two consecutive lines (one hardware-prefetchable pair) instead of
// two independent ones.
type affPair struct {
	X, Y fp.Element
}

// MSM computes Σ scalars[i]·points[i] with the full machine (GOMAXPROCS
// workers). It panics if the slice lengths differ.
func MSM(points []G1Affine, scalars []ff.Element) G1Jac {
	return MSMWorkers(points, scalars, 0)
}

// MSMWorkers is MSM with an explicit worker budget (<= 0 means GOMAXPROCS).
// The φ-table is built on the fly (one fp.Mul per point, from the pooled
// arena); callers that reuse a base set should precompute it once with
// EndoPoints and call MSMEndoWorkersCtx instead.
//
// The points are one final chunk of a StreamMSM, whose lanes split them so
// parallelism scales with the input size N instead of stopping at the
// window count (group addition is exact, so the result is identical for
// every budget).
func MSMWorkers(points []G1Affine, scalars []ff.Element, workers int) G1Jac {
	if len(points) != len(scalars) {
		panic("curve: MSM length mismatch")
	}
	return msmGLVCtx(nil, points, nil, scalars, workers, 0)
}

// MSMEndoWorkersCtx computes the MSM against a precomputed φ-table (from
// EndoPoints): endoX[i] must equal β·points[i].X. The PCS layer caches the
// table per SRS level so committing and opening never recompute βx. The
// bucket accumulation checks ctx (nil means never cancelled) every few
// thousand point visits, so a cancel lands in milliseconds instead of
// waiting out a multi-second MSM; on cancellation it returns ctx's error and
// the partial sum is discarded.
func MSMEndoWorkersCtx(ctx context.Context, points []G1Affine, endoX []fp.Element, scalars []ff.Element, workers int) (G1Jac, error) {
	if len(points) != len(scalars) || len(endoX) != len(points) {
		panic("curve: MSM length mismatch")
	}
	res := msmGLVCtx(ctx, points, endoX, scalars, workers, 0)
	if ctx != nil && ctx.Err() != nil {
		return G1Jac{}, ctx.Err()
	}
	return res, nil
}

// glvScalarBits is the bit capacity of one decomposed scalar half: the
// magnitudes are < 2^127 and signed-digit recoding can carry one bit past
// the top, so windows must cover 128 bits.
const glvScalarBits = 128

// msmGLVCtx is the one-shot MSM: a StreamMSM with the uncapped window, fed
// all points as one final chunk. c is the window width; c <= 0 sizes it
// from the count of scalars other than 0 and 1, the only ones that reach a
// bucket (tests and the window-tuning benchmark pass c explicitly). endoX
// may be nil, in which case the φ-table is materialized from the arena for
// the duration of the call (one fp.Mul per point). ctx may be nil (never
// cancelled); when it fires, in-flight bucket accumulations bail out at
// their next poll and the returned sum is garbage — callers must check
// ctx.Err() and discard it (MSMEndoWorkersCtx does).
func msmGLVCtx(ctx context.Context, points []G1Affine, endoX []fp.Element, scalars []ff.Element, workers, c int) G1Jac {
	n := len(points)
	w := parallel.Workers(workers)

	// Decompose every scalar once; windows extract their signed digits from
	// the halves on the fly (a handful of shifts per digit), so no
	// window×point digit matrix is materialized.
	splits := splitArena.Get(n)
	defer splitArena.Put(splits)
	ones, count := splitScalars(w, points, scalars, splits)
	if count == 0 {
		return ones
	}
	if c <= 0 {
		c = windowSize(count)
	}

	if endoX == nil {
		buf := fpArena.Get(n)
		defer fpArena.Put(buf)
		EndoPointsInto(buf, points, w)
		endoX = buf
	}

	m := newStreamMSM(c, count, w)
	m.ones = ones
	return m.combine(m.pass(ctx, points, endoX, splits, true))
}

// splitScalars writes each scalar's GLV decomposition into splits and
// returns the sum of the points whose scalar is one and the count of
// scalars that are neither 0 nor 1. A 0 or 1 scalar gets the all-zero
// split, so no window adds its point: zeros drop out and the ones never
// pile into window 0's first bucket. This is the zkPHIRE Sparse MSM rule,
// and every MSM here runs it.
func splitScalars(workers int, points []G1Affine, scalars []ff.Element, splits []glvSplit) (ones G1Jac, count int) {
	if len(scalars) == 0 {
		return *ones.SetInfinity(), 0
	}
	type part struct {
		ones  G1Jac
		count int
	}
	r := parallel.MapReduce(workers, len(scalars), func(lo, hi int) part {
		var p part
		p.ones.SetInfinity()
		for i := lo; i < hi; i++ {
			s := &splits[i]
			if bucketScalar(&scalars[i]) {
				s.k1, s.k2, s.neg1, s.neg2 = scalars[i].SplitGLV()
				p.count++
				continue
			}
			*s = glvSplit{}
			if scalars[i].IsOne() {
				p.ones.AddMixed(&points[i])
			}
		}
		return p
	}, func(a, b part) part {
		a.ones.AddAssign(&b.ones)
		a.count += b.count
		return a
	})
	return r.ones, r.count
}

// bucketScalar reports whether a scalar reaches the buckets: 0 drops out
// and 1 is summed on the side (splitScalars).
func bucketScalar(s *ff.Element) bool { return !s.IsZero() && !s.IsOne() }

// CountDense returns how many scalars are neither 0 nor 1 — the points an
// MSM over them actually buckets, by splitScalars' own test. A caller that
// streams the scalars sizes NewStreamMSM with it.
func CountDense(scalars []ff.Element, workers int) int {
	if len(scalars) == 0 {
		return 0
	}
	return parallel.MapReduce(workers, len(scalars), func(lo, hi int) int {
		n := 0
		for i := lo; i < hi; i++ {
			if bucketScalar(&scalars[i]) {
				n++
			}
		}
		return n
	}, func(a, b int) int { return a + b })
}

// glvDigit extracts the signed width-c digit of window wi from a half-width
// magnitude. Signed recoding is closed-form: with tᵢ the raw unsigned digit,
//
//	dᵢ = tᵢ + bit(wi·c − 1) − 2^c·bit((wi+1)·c − 1),
//
// i.e. a window borrows one from its successor exactly when its own top bit
// is set, which keeps every digit in [−2^(c−1), 2^(c−1)] without a carry
// chain (bit(j) is bit j of the magnitude). Reading two bits per window
// replaces the per-scalar sequential recode, so digits are extracted on the
// fly per (window, point) visit.
func glvDigit(k *[2]uint64, wi, c int) int {
	bit := wi * c
	var v uint64
	if bit < 128 {
		word, ofs := bit>>6, uint(bit&63)
		v = k[word] >> ofs
		if int(ofs)+c > 64 && word == 0 {
			v |= k[1] << (64 - ofs)
		}
		v &= (1 << uint(c)) - 1
	}
	d := int(v)
	if bit > 0 {
		d += int((k[(bit-1)>>6] >> uint((bit-1)&63)) & 1)
	}
	if ob := (wi+1)*c - 1; ob < 128 && (k[ob>>6]>>uint(ob&63))&1 != 0 {
		d -= 1 << uint(c)
	}
	return d
}

// bucketTable is one (window, lane) cell of a StreamMSM: 2^(c−1) affine
// buckets with their occupancy flags, plus the Jacobian overflow buckets
// allocated lazily for degenerate remnants. accumulate leaves nothing
// parked when it returns, so the table between chunks is buckets, flags and
// overflow, and reduce adds all three. The zero value is a table no chunk
// has reached: it reduces to the identity.
type bucketTable struct {
	c        int
	buckets  []affPair
	full     []bool
	overflow []G1Jac // nil until a drain meets a degenerate remnant
}

func newBucketTable(c int) bucketTable {
	numBuckets := 1 << uint(c-1)
	t := bucketTable{c: c}
	// The bucket table stores bare (X, Y) pairs — 96 bytes per bucket, no
	// Infinity-flag padding — so at c=16 the accumulation loop's random
	// accesses walk a 3 MiB table of adjacent-line pairs.
	t.buckets = pairArena.Get(numBuckets)
	t.full = boolArena.Get(numBuckets)
	clear(t.full)
	return t
}

// release returns the table's buffers to their arenas.
func (t *bucketTable) release() {
	pairArena.Put(t.buckets)
	boolArena.Put(t.full)
	jacArena.Put(t.overflow)
	*t = bucketTable{}
}

// accumulate adds window wi of one point range into the buckets: each point
// pair (Pᵢ, φ(Pᵢ)) contributes its two digits; |d| selects the bucket and
// the digit sign (xor the half's sign) selects P or −P, negation being one
// fp.Neg of y.
//
// Buckets are kept in AFFINE coordinates and updated with batch-affine
// additions: each addition needs one field inversion for its slope, and one
// Montgomery batch inversion serves a whole queue of them, so the amortized
// cost (~1 inversion share + 3M + 1S) beats the 8M+5S mixed Jacobian
// addition by roughly 2×. A bucket can appear at most once per queue (its
// queued slope reads the bucket value at queue time); a second addition to
// the same bucket is deferred to a follow-up pass instead of flushing, so
// the inversion stays amortized over full batches even for narrow windows.
func (t *bucketTable) accumulate(ctx context.Context, points []G1Affine, endoX []fp.Element, splits []glvSplit, wi int) {
	c, buckets, full := t.c, t.buckets, t.full
	numBuckets := len(buckets)
	inQueue := boolArena.Get(numBuckets)
	clear(inQueue)
	defer boolArena.Put(inQueue)

	const maxBatch = 4096
	opBucket := int32Arena.Get(maxBatch) // dst: bucket b, or pend slot −s−1 for pair merges
	opX := fpArena.Get(maxBatch)         // addend x₂ (needed for x3)
	opX1 := fpArena.Get(maxBatch)        // pair merges: first operand x₁
	opY1 := fpArena.Get(maxBatch)        // pair merges: first operand y₁
	opNum := fpArena.Get(maxBatch)       // slope numerator
	opDen := fpArena.Get(maxBatch)       // slope denominator → batch inverted
	invScratch := fpArena.Get(maxBatch)
	defer int32Arena.Put(opBucket)
	defer fpArena.Put(opX)
	defer fpArena.Put(opX1)
	defer fpArena.Put(opY1)
	defer fpArena.Put(opNum)
	defer fpArena.Put(opDen)
	defer fpArena.Put(invScratch)
	m := 0

	pend := pendArena.Get(maxBatch)
	defer pendArena.Put(pend)
	nPend := 0

	flush := func() {
		batchInvertFp(opDen[:m], invScratch)
		var lambda, tmp, x3, y3 fp.Element
		for i := 0; i < m; i++ {
			lambda.Mul(&opNum[i], &opDen[i])
			x3.Square(&lambda)
			if b := opBucket[i]; b >= 0 {
				bk := &buckets[b]
				x3.Sub(&x3, &bk.X)
				x3.Sub(&x3, &opX[i])
				tmp.Sub(&bk.X, &x3)
				y3.Mul(&lambda, &tmp)
				y3.Sub(&y3, &bk.Y)
				bk.X, bk.Y = x3, y3
				inQueue[b] = false
			} else {
				// Pair merge: the sum of two parked same-bucket additions
				// lands back in the first operand's pend slot.
				dst := &pend[-b-1]
				x3.Sub(&x3, &opX1[i])
				x3.Sub(&x3, &opX[i])
				tmp.Sub(&opX1[i], &x3)
				y3.Mul(&lambda, &tmp)
				y3.Sub(&y3, &opY1[i])
				dst.x, dst.y = x3, y3
			}
		}
		m = 0
	}

	// minAmortize is the batch size below which a flush wastes the shared
	// field inversion; the drain loop's degenerate guard below dumps what is
	// left into Jacobian overflow buckets rather than flushing nearly-empty
	// batches.
	// Conflicting additions themselves ALWAYS defer to `pend`: the
	// earlier scheme sent every conflict that arrived while the batch was
	// short through full Jacobian arithmetic, and because the signed-digit
	// bucket count (2^(c−1)) no longer exceeds maxBatch, queue occupancy —
	// and with it the conflict rate — is high at every window width; the
	// profile showed ~25% of all bucket additions taking that slow path.
	// Pair-merging in the drain loop handles the conflicts at amortized
	// batch-affine cost instead.
	const minAmortize = 192

	// enqueue adds ±(px, py) to bucket b; py is already sign-adjusted by the
	// caller. px/py may point into pend[nPend] itself during a drain — the
	// only write through pend in here is the self-assignment re-pend, which
	// is harmless. The outer loops keep nPend < maxBatch−1 so the deferred
	// append never overflows.
	enqueue := func(b int32, px, py *fp.Element) {
		if !full[b] {
			buckets[b].X = *px
			buckets[b].Y = *py
			full[b] = true
			return
		}
		if inQueue[b] {
			pend[nPend] = pendOp{x: *px, y: *py, b: b}
			nPend++
			return
		}
		bk := &buckets[b]
		var num, den fp.Element
		if bk.X.Equal(px) {
			if !bk.Y.Equal(py) {
				// P + (−P): the bucket empties.
				full[b] = false
				return
			}
			// Doubling: λ = 3x² / 2y.
			den.Double(py)
			if den.IsZero() {
				// 2-torsion input (not reachable from subgroup points).
				full[b] = false
				return
			}
			num.Square(px)
			var twoX2 fp.Element
			twoX2.Double(&num)
			num.Add(&num, &twoX2)
		} else {
			// Chord: λ = (y2−y1)/(x2−x1).
			num.Sub(py, &bk.Y)
			den.Sub(px, &bk.X)
		}
		opBucket[m] = b
		opX[m] = *px
		opNum[m] = num
		opDen[m] = den
		inQueue[b] = true
		m++
		if m == maxBatch {
			flush()
		}
	}

	// pairMerge queues e + pend[h] (two parked additions for the same
	// bucket) as an independent batch-affine addition whose result replaces
	// pend[h]. The caller clears head[b] so nothing pairs with the in-flight
	// slot before the next flush finalizes it.
	pairMerge := func(h int32, e *pendOp) {
		e1 := &pend[h]
		var num, den fp.Element
		if e1.x.Equal(&e.x) {
			if !e1.y.Equal(&e.y) {
				// P + (−P): both entries annihilate.
				e1.dead = true
				return
			}
			den.Double(&e1.y)
			if den.IsZero() {
				e1.dead = true
				return
			}
			num.Square(&e1.x)
			var twoX2 fp.Element
			twoX2.Double(&num)
			num.Add(&num, &twoX2)
		} else {
			num.Sub(&e.y, &e1.y)
			den.Sub(&e.x, &e1.x)
		}
		opBucket[m] = -h - 1
		opX[m] = e.x
		opX1[m] = e1.x
		opY1[m] = e1.y
		opNum[m] = num
		opDen[m] = den
		m++
		if m == maxBatch {
			flush()
		}
	}

	// head[b] is the slot of the one parked-and-not-in-flight entry for
	// bucket b in the current drain round, or −1.
	head := int32Arena.Get(numBuckets)
	defer int32Arena.Put(head)

	// drainLoop re-runs the deferred adds until none remain parked. Each
	// round: entries whose bucket is free enter the batch; the first still-
	// conflicting entry per bucket stays parked; every further entry for
	// that bucket pair-merges with the parked one. A k-deep cluster thus
	// tree-reduces in ⌈log₂k⌉ rounds at batch-affine cost. Every round
	// consumes at least one entry (the queue is empty right after a flush),
	// so the loop terminates; if a round still cannot assemble a batch worth
	// inverting, the remnant is genuinely degenerate and goes through the
	// Jacobian overflow buckets.
	drainLoop := func() {
		for nPend > 0 {
			flush()
			for i := range head[:numBuckets] {
				head[i] = -1
			}
			cnt := nPend
			nPend = 0
			for i := 0; i < cnt; i++ {
				e := pend[i]
				if e.dead {
					continue
				}
				if !inQueue[e.b] {
					enqueue(e.b, &e.x, &e.y)
					continue
				}
				if h := head[e.b]; h >= 0 {
					pairMerge(h, &e)
					head[e.b] = -1
					continue
				}
				pend[nPend] = e
				head[e.b] = int32(nPend)
				nPend++
			}
			if nPend > 0 && nPend < minAmortize && m < minAmortize {
				if t.overflow == nil {
					t.overflow = jacArena.Get(numBuckets)
					for i := range t.overflow {
						t.overflow[i].SetInfinity()
					}
				}
				flush() // finalize in-flight pair merges before reading pend
				var aff G1Affine
				for i := 0; i < nPend; i++ {
					if pend[i].dead {
						continue
					}
					aff.X, aff.Y = pend[i].x, pend[i].y
					t.overflow[pend[i].b].AddMixed(&aff)
				}
				nPend = 0
			}
		}
	}

	var yTmp fp.Element
	for i := range splits {
		// Cancellation poll: ~4k point pairs between checks keeps the
		// mid-MSM cancel latency in the low milliseconds at zero measurable
		// cost. The partial sum returned after a break is discarded by the
		// ctx-aware entry points.
		if i&4095 == 0 && ctx != nil && ctx.Err() != nil {
			break
		}
		s := &splits[i]
		if nPend >= maxBatch-2 {
			drainLoop()
		}
		// A 0 or 1 scalar has the all-zero split (splitScalars): skip it
		// before touching its point.
		if s.k1 == [2]uint64{} && s.k2 == [2]uint64{} || points[i].Infinity {
			continue
		}
		if d := glvDigit(&s.k1, wi, c); d != 0 {
			neg := s.neg1
			if d < 0 {
				d, neg = -d, !neg
			}
			py := &points[i].Y
			if neg {
				yTmp.Neg(py)
				py = &yTmp
			}
			enqueue(int32(d-1), &points[i].X, py)
		}
		// The φ half shares y with the base point; only x differs (βx).
		if d := glvDigit(&s.k2, wi, c); d != 0 {
			neg := s.neg2
			if d < 0 {
				d, neg = -d, !neg
			}
			py := &points[i].Y
			if neg {
				yTmp.Neg(py)
				py = &yTmp
			}
			enqueue(int32(d-1), &endoX[i], py)
		}
	}
	drainLoop()
	flush()
}

// reduce forms the window's weighted sum Σ d·bucket[d] with a running
// suffix sum over the 2^(c−1) buckets.
func (t *bucketTable) reduce() G1Jac {
	var running, sum G1Jac
	var aff G1Affine
	running.SetInfinity()
	sum.SetInfinity()
	for b := len(t.buckets) - 1; b >= 0; b-- {
		if t.full[b] {
			aff.X, aff.Y = t.buckets[b].X, t.buckets[b].Y
			running.AddMixed(&aff)
		}
		if t.overflow != nil && !t.overflow[b].IsInfinity() {
			running.AddAssign(&t.overflow[b])
		}
		sum.AddAssign(&running)
	}
	return sum
}

// extractDigit reads a width-bit window starting at bit `bit` from
// little-endian limbs (unsigned; the fixed-base table path uses it).
func extractDigit(words *[ff.Limbs]uint64, bit, width int) uint32 {
	const wordBits = 64
	wordIdx := bit / wordBits
	if wordIdx >= len(words) {
		return 0
	}
	ofs := bit % wordBits
	v := words[wordIdx] >> uint(ofs)
	if ofs+width > wordBits && wordIdx+1 < len(words) {
		v |= words[wordIdx+1] << uint(wordBits-ofs)
	}
	return uint32(v & ((1 << uint(width)) - 1))
}

// windowSize picks the Pippenger window width for n points whose scalars
// reach the buckets (2n point pairs after the GLV doubling; 0 and 1 scalars
// are split out first and cost no bucket work). The cost model is
// numWindows·(2n·costAffine + 2·2^(c−1)·costJac) with numWindows =
// ceil(128/c): versus the pre-GLV model both the window count (255→128
// bits) and the bucket count (2^c−1 → 2^(c−1)) are halved, so the same
// cache footprint carries a one-bit-wider window and the reduction term
// shrinks ~4×. Tiers re-checked with BenchmarkMSMWindowSweep (tier ±2, one
// worker, alternating passes, 2-core runner) after fp.Mul moved to the ADX
// kernel, which halves costAffine and costJac alike and leaves the memory
// traffic where it was. None moved: at 2^16 c=13 (0.67–0.76 s) is ≥ 8% ahead
// of c=12 and c=14 in every pass; at 2^10 c=8 (18–22 ms) ties c=9; at 2^15
// c=12 (324–468 ms vs c=13's 298–471) and at 2^17 c=14 (1.34–1.53 s vs
// c=15's 1.44–1.61) won some of five passes by 5–12% and lost or tied
// others — short of "> 5% in every pass" on a runner that wanders by more.
// The tiers from 2^18 up are PR 4's and were not re-measured.
func windowSize(n int) int {
	switch {
	case n < 32:
		return 4
	case n < 256:
		return 6
	case n < 4096:
		return 8
	case n < 1<<14:
		return 10
	case n < 1<<15:
		return 12
	case n < 1<<17:
		return 13
	case n < 1<<18:
		return 15
	default:
		return 16
	}
}

// MSMNaive computes the MSM by independent scalar multiplications; used to
// validate MSM in tests.
func MSMNaive(points []G1Affine, scalars []ff.Element) G1Jac {
	var acc, tmp, pj G1Jac
	acc.SetInfinity()
	for i := range points {
		pj.FromAffine(&points[i])
		tmp.ScalarMul(&pj, &scalars[i])
		acc.AddAssign(&tmp)
	}
	return acc
}
