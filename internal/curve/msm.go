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
// batch-affine queues, digit decompositions, the ones' pair sums). Pooling
// them keeps repeated proofs allocation-free in steady state.
var (
	affArena   parallel.Arena[G1Affine]
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
// pile into window 0's first bucket, but are summed in a tree of
// batch-affine pair sums (affineSum). This is the zkPHIRE Sparse MSM
// rule, and every MSM here runs it.
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
		var sum affineSum
		for i := lo; i < hi; i++ {
			s := &splits[i]
			if bucketScalar(&scalars[i]) {
				s.k1, s.k2, s.neg1, s.neg2 = scalars[i].SplitGLV()
				p.count++
				continue
			}
			*s = glvSplit{}
			if scalars[i].IsOne() && !points[i].Infinity {
				sum.add(&points[i])
			}
		}
		p.ones = sum.sum()
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

// bucketTable is one (window group, lane) cell of a StreamMSM: for each
// of its windows, 2^(c−1) affine buckets with their occupancy flags,
// window k's at k·2^(c−1). accumulate leaves nothing parked when it
// returns, so the table between chunks is buckets and flags, and reduce
// adds them. The zero value is a table no chunk has reached: it reduces
// to the identity.
type bucketTable struct {
	c, windows int
	buckets    []affPair
	full       []bool
}

func newBucketTable(c, windows int) bucketTable {
	numBuckets := windows << uint(c-1)
	t := bucketTable{c: c, windows: windows}
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
	*t = bucketTable{}
}

// maxBatch is the batch-affine queue length: one shared inversion per
// maxBatch bucket additions. A multiple of fp.LaneCount, so a full flush
// has no padded lane group. It is also the most buckets a table holds
// (newStreamMSM sizes the window groups by it), so a table's whole
// bucket range fits one queue.
const maxBatch = 4096

// bucketQueue is accumulate's working state for one table. Queued
// addition i (a chordQueue entry) adds a point to a bucket's value read
// at queue time; its sum lands in bucket dst[i], or for a pair merge in
// pend slot −dst[i]−1. A bucket is in the queue at most once (inQueue),
// since its queued addition read the bucket at queue time. A conflicting
// addition always parks in pend rather than flushing a short batch:
// since the signed-digit bucket count no longer exceeds maxBatch, queue
// occupancy, and with it the conflict rate, is high at every window
// width, and pair-merging in the drain loop handles the conflicts at
// batch-affine cost.
type bucketQueue struct {
	t       *bucketTable
	chords  chordQueue
	inQueue []bool
	dst     []int32
	pend    []pendOp
	nPend   int
	head    []int32 // drain round: bucket b's parked slot, or −1
}

// init sets q up for table t with its buffers from the arenas; release
// returns them.
func (q *bucketQueue) init(t *bucketTable) {
	*q = bucketQueue{t: t}
	q.chords.init(maxBatch)
	numBuckets := len(t.buckets)
	q.inQueue = boolArena.Get(numBuckets)
	clear(q.inQueue)
	q.head = int32Arena.Get(numBuckets)
	q.dst = int32Arena.Get(maxBatch)
	q.pend = pendArena.Get(maxBatch)
}

func (q *bucketQueue) release() {
	q.chords.release()
	boolArena.Put(q.inQueue)
	int32Arena.Put(q.head)
	int32Arena.Put(q.dst)
	pendArena.Put(q.pend)
}

// flush completes every queued addition and writes the sums back.
func (q *bucketQueue) flush() {
	for i, b := range q.dst[:q.chords.flush()] {
		if b >= 0 {
			bk := &q.t.buckets[b]
			q.chords.sum(i, &bk.X, &bk.Y)
			q.inQueue[b] = false
		} else {
			// Pair merge: the sum of two parked same-bucket additions
			// lands back in the first operand's pend slot.
			dst := &q.pend[-b-1]
			q.chords.sum(i, &dst.x, &dst.y)
		}
	}
}

// push queues the addition of (x2, y2) to (x1, y1) for destination dst,
// or reports false when the sum is the identity (chordQueue.add). A full
// queue is flushed at once.
func (q *bucketQueue) push(dst int32, x1, y1, x2, y2 *fp.Element) bool {
	q.dst[q.chords.m] = dst
	if !q.chords.add(x1, y1, x2, y2) {
		return false
	}
	if q.chords.m == maxBatch {
		q.flush()
	}
	return true
}

// enqueue adds ±(px, py) to bucket b; py is already sign-adjusted by the
// caller. During a drain px/py point into pend[i] with i ≥ nPend: a
// re-park copies the entry onto itself or a lower slot, and a flush
// inside push writes only slots below nPend. accumulate drains before a
// point could park past the end of pend.
func (q *bucketQueue) enqueue(b int32, px, py *fp.Element) {
	t := q.t
	if !t.full[b] {
		t.buckets[b] = affPair{*px, *py}
		t.full[b] = true
		return
	}
	if q.inQueue[b] {
		q.pend[q.nPend] = pendOp{x: *px, y: *py, b: b}
		q.nPend++
		return
	}
	bk := &t.buckets[b]
	// inQueue is set before push, which may flush and clear it again.
	q.inQueue[b] = true
	if !q.push(b, &bk.X, &bk.Y, px, py) {
		// P + (−P): the bucket empties.
		q.inQueue[b] = false
		t.full[b] = false
	}
}

// pairMerge queues e + pend[h] (two parked additions for the same bucket)
// as an independent batch-affine addition whose result replaces pend[h].
// The caller clears head[b] so nothing pairs with the in-flight slot
// before the next flush finalizes it.
func (q *bucketQueue) pairMerge(h int32, e *pendOp) {
	e1 := &q.pend[h]
	if !q.push(-h-1, &e1.x, &e1.y, &e.x, &e.y) {
		// P + (−P): both entries annihilate.
		e1.dead = true
	}
}

// drain re-runs the deferred adds until none remain parked. Each round:
// entries whose bucket is free enter the batch; the first still-
// conflicting entry per bucket stays parked; every further entry for that
// bucket pair-merges with the parked one. A k-deep cluster thus
// tree-reduces in ⌈log₂k⌉ rounds at batch-affine cost. Every round
// consumes at least one entry (the queue is empty right after a flush), so
// the loop terminates. A degenerate remnant costs a few short flushes,
// once per table: the table spans its group's windows.
func (q *bucketQueue) drain() {
	for q.nPend > 0 {
		q.flush()
		for i := range q.head {
			q.head[i] = -1
		}
		cnt := q.nPend
		q.nPend = 0
		for i := 0; i < cnt; i++ {
			e := &q.pend[i]
			if e.dead {
				continue
			}
			if !q.inQueue[e.b] {
				q.enqueue(e.b, &e.x, &e.y)
				continue
			}
			if h := q.head[e.b]; h >= 0 {
				q.pairMerge(h, e)
				q.head[e.b] = -1
				continue
			}
			if q.nPend != i {
				q.pend[q.nPend] = *e
			}
			q.head[e.b] = int32(q.nPend)
			q.nPend++
		}
	}
}

// accumulate adds the table's windows, w0 and the t.windows − 1 after
// it, of one point range into the buckets: each point pair (Pᵢ, φ(Pᵢ))
// is read once and contributes its two digits per window; |d| selects
// the bucket within the window's 2^(c−1) and the digit sign (xor the
// half's sign) selects P or −P, negation being one fp.Neg of y.
//
// Buckets are kept in AFFINE coordinates and updated with batch-affine
// additions: each addition needs one field inversion for its slope, and one
// Montgomery batch inversion serves a whole queue of them, so the amortized
// cost (~1 inversion share + 3M + 1S) beats the 8M+5S mixed Jacobian
// addition by roughly 2×. A bucket can appear at most once per queue (its
// queued slope reads the bucket value at queue time); a second addition to
// the same bucket is deferred to a follow-up pass instead of flushing, so
// the inversion stays amortized over full batches even for narrow windows.
func (t *bucketTable) accumulate(ctx context.Context, points []G1Affine, endoX []fp.Element, splits []glvSplit, w0 int) {
	var q bucketQueue
	q.init(t)
	defer q.release()
	c, perWindow := t.c, int32(1)<<uint(t.c-1)
	// A point parks at most two additions per window.
	parkLimit := maxBatch - 2*t.windows
	// Cancellation poll: ~4k visits of a point pair to a window between
	// checks keeps the mid-MSM cancel latency in the low milliseconds at
	// zero measurable cost. A cancelled table is left as it stands, parked
	// additions and all: the ctx-aware entry points discard its sum.
	pollEvery := max(1, 4096/t.windows)
	var yNeg fp.Element
	for i := range splits {
		if i%pollEvery == 0 && ctx != nil && ctx.Err() != nil {
			return
		}
		s := &splits[i]
		if q.nPend > parkLimit {
			q.drain()
		}
		// A 0 or 1 scalar has the all-zero split (splitScalars): skip it
		// before touching its point.
		p := &points[i]
		if s.k1 == [2]uint64{} && s.k2 == [2]uint64{} || p.Infinity {
			continue
		}
		yNeg.Neg(&p.Y)
		for k, off := 0, int32(0); k < t.windows; k, off = k+1, off+perWindow {
			if d := glvDigit(&s.k1, w0+k, c); d != 0 {
				neg := s.neg1
				if d < 0 {
					d, neg = -d, !neg
				}
				py := &p.Y
				if neg {
					py = &yNeg
				}
				q.enqueue(off+int32(d-1), &p.X, py)
			}
			// The φ half shares y with the base point; only x differs (βx).
			if d := glvDigit(&s.k2, w0+k, c); d != 0 {
				neg := s.neg2
				if d < 0 {
					d, neg = -d, !neg
				}
				py := &p.Y
				if neg {
					py = &yNeg
				}
				q.enqueue(off+int32(d-1), &endoX[i], py)
			}
		}
	}
	q.drain()
	q.flush()
}

// reduce sets sums[k] to window k's weighted sum Σ d·bucket[d] (d = b+1
// for bucket b of the window) for each of the table's windows, with
// running suffix sums on fp.Lanes. The buckets are cut into segments of w
// consecutive buckets that never cross a window: a whole window per
// segment when the table has eight windows or more, else 8/windows
// segments per window, w = max(1, 2^(c−1)·windows/8). Each lane pass
// runs eight segments, segment s in lane s, and each lane runs the
// running sum over its own segment from the top: per bucket, run +=
// bucket is a Jacobian mixed addition and acc += run a full one, with
// AddMixed's, AddAssign's and Double's formulas. Their exceptions are
// masks (addTo): a lane with an empty bucket is left alone, one whose run
// or acc is still at infinity takes its addend whole, and one whose
// addition meets H = 0 doubles or becomes the identity as the scalar
// addition would. Lanes past the last segment stay at infinity and are
// never read. A lane ends with R_s, its segment's bucket sum, and S_s,
// the segment's sum weighted from 1, so for a window of segments s with
// d = (b − s·w + 1) + s·w
//
//	Σ d·bucket[d] = Σ S_s + w·Σ s·R_s,
//
// which a window's combine finishes in scalar code: its S_s, a second
// running sum over its R_s and log₂ w doublings, or S_0 alone for a
// window that is one segment.
func (t *bucketTable) reduce(sums []G1Jac) {
	nb := len(t.buckets)
	if nb == 0 {
		return
	}
	perWindow := nb / t.windows
	segs := max(1, fp.LaneCount/t.windows)
	w := max(1, perWindow/segs)
	segs = perWindow / w
	lane := func(p *jacLanes, inf uint8, s int) (j G1Jac) {
		if inf&(1<<s) != 0 {
			return *j.SetInfinity()
		}
		p[0].Get(s, &j.X)
		p[1].Get(s, &j.Y)
		p[2].Get(s, &j.Z)
		return j
	}
	for base := 0; base < nb; base += fp.LaneCount * w {
		run, acc, runInf, accInf := t.lanePass(base, w)
		// Lane s holds segment base/w + s; a window's segs segments are
		// lanes lo..lo+segs−1.
		first := base / w
		for lo := 0; lo < fp.LaneCount && first+lo < nb/w; lo += segs {
			var sum, runS, weighted G1Jac
			sum.SetInfinity()
			runS.SetInfinity()
			weighted.SetInfinity()
			for s := lo + segs - 1; s >= lo; s-- {
				a := lane(&acc, accInf, s)
				sum.AddAssign(&a)
				if s > lo {
					r := lane(&run, runInf, s)
					runS.AddAssign(&r)
					weighted.AddAssign(&runS)
				}
			}
			if segs > 1 {
				for k := 1; k < w; k <<= 1 {
					weighted.Double(&weighted)
				}
				sum.AddAssign(&weighted)
			}
			sums[(first+lo)/segs] = sum
		}
	}
}

// lanePass runs the running sums of the eight w-bucket segments from
// bucket base up, segment s in lane s, and returns each lane's run (R_s)
// and acc (S_s), unpacked, with the masks of the lanes where they are at
// infinity (their coordinates are meaningless).
func (t *bucketTable) lanePass(base, w int) (run, acc jacLanes, runInf, accInf uint8) {
	nb := len(t.buckets)
	var pt jacLanes
	oneFp := fp.One()
	pt[2].Broadcast(&oneFp) // buckets are affine: Z = 1
	runInf, accInf = 0xff, 0xff
	for i := w - 1; i >= 0; i-- {
		var full uint8
		for s, b := 0, base+i; s < fp.LaneCount && b < nb; s, b = s+1, b+w {
			if t.full[b] {
				full |= 1 << s
				pt[0].Set(s, &t.buckets[b].X)
				pt[1].Set(s, &t.buckets[b].Y)
			}
		}
		if full != 0 {
			fp.PackLanes(pt[:2])
			runInf = run.addTo(&pt, full, runInf, true)
		}
		accInf = acc.addTo(&run, ^runInf, accInf, false)
	}
	fp.UnpackLanes(run[:])
	fp.UnpackLanes(acc[:])
	return run, acc, runInf, accInf
}

// jacLanes is eight Jacobian points, one per lane, as X, Y and Z rows in
// fp.Lanes' arithmetic form; whether a lane is at infinity is the
// caller's mask, not Z = 0.
type jacLanes [3]fp.Lanes

func (p *jacLanes) x() []fp.Lanes { return p[0:1] }
func (p *jacLanes) y() []fp.Lanes { return p[1:2] }
func (p *jacLanes) z() []fp.Lanes { return p[2:3] }

// blend copies the lanes of q in mask into p.
func (p *jacLanes) blend(mask uint8, q *jacLanes) {
	for i := range p {
		p[i].Blend(mask, &q[i])
	}
}

// addTo adds q to p on the lanes in mask, where inf marks p's lanes at
// infinity and q's lanes in mask are finite, and returns p's new infinity
// mask. mixed takes q as affine (its Z lanes are one) and uses AddMixed's
// formula, else AddAssign's. Like those, a lane at infinity takes q whole,
// and a lane where H = 0 doubles (r = 0: p = q) or becomes the identity
// (p = −q).
func (p *jacLanes) addTo(q *jacLanes, mask, inf uint8, mixed bool) uint8 {
	add, start := mask&^inf, mask&inf
	if add != 0 {
		var sum jacLanes
		var h, r uint8
		if mixed {
			h, r = sum.addMixed(p, q)
		} else {
			h, r = sum.add(p, q)
		}
		p.blend(add&^h, &sum)
		if dbl := add & h & r; dbl != 0 {
			sum.double(p)
			p.blend(dbl, &sum)
		}
		inf |= add & h &^ r
	}
	p.blend(start, q)
	return inf &^ start
}

// addMixed sets z = p + q lane-wise, q affine, by AddMixed's formula
// (madd-2007-bl), and returns the lanes where H = 0 and where r = 0
// (there z is meaningless). z must be neither p nor q.
func (z *jacLanes) addMixed(p, q *jacLanes) (h, r uint8) {
	var z1z1, u2, s2, hl, hh, i, j, rl, v, t [1]fp.Lanes
	fp.MulLanes(z1z1[:], p.z(), p.z())
	fp.MulLanes(u2[:], q.x(), z1z1[:])
	fp.MulLanes(s2[:], q.y(), p.z())
	fp.MulLanes(s2[:], s2[:], z1z1[:])
	fp.SubLanes(hl[:], u2[:], p.x())
	fp.MulLanes(hh[:], hl[:], hl[:])
	fp.AddLanes(i[:], hh[:], hh[:])
	fp.AddLanes(i[:], i[:], i[:])
	fp.MulLanes(j[:], hl[:], i[:])
	fp.SubLanes(rl[:], s2[:], p.y())
	fp.AddLanes(rl[:], rl[:], rl[:])
	fp.MulLanes(v[:], p.x(), i[:])
	z.chord(p.y(), rl[:], j[:], v[:], t[:])
	fp.AddLanes(z.z(), p.z(), hl[:])
	fp.MulLanes(z.z(), z.z(), z.z())
	fp.SubLanes(z.z(), z.z(), z1z1[:])
	fp.SubLanes(z.z(), z.z(), hh[:])
	return hl[0].ZeroMask(), rl[0].ZeroMask()
}

// add sets z = p + q lane-wise by AddAssign's formula (add-2007-bl) and
// returns the lanes where H = 0 and where r = 0, as addMixed does.
func (z *jacLanes) add(p, q *jacLanes) (h, r uint8) {
	var z1z1, z2z2, u1, u2, s1, s2, hl, i, j, rl, v [1]fp.Lanes
	fp.MulLanes(z1z1[:], p.z(), p.z())
	fp.MulLanes(z2z2[:], q.z(), q.z())
	fp.MulLanes(u1[:], p.x(), z2z2[:])
	fp.MulLanes(u2[:], q.x(), z1z1[:])
	fp.MulLanes(s1[:], p.y(), q.z())
	fp.MulLanes(s1[:], s1[:], z2z2[:])
	fp.MulLanes(s2[:], q.y(), p.z())
	fp.MulLanes(s2[:], s2[:], z1z1[:])
	fp.SubLanes(hl[:], u2[:], u1[:])
	fp.AddLanes(i[:], hl[:], hl[:])
	fp.MulLanes(i[:], i[:], i[:])
	fp.MulLanes(j[:], hl[:], i[:])
	fp.SubLanes(rl[:], s2[:], s1[:])
	fp.AddLanes(rl[:], rl[:], rl[:])
	fp.MulLanes(v[:], u1[:], i[:])
	z.chord(s1[:], rl[:], j[:], v[:], u2[:])
	fp.AddLanes(z.z(), p.z(), q.z())
	fp.MulLanes(z.z(), z.z(), z.z())
	fp.SubLanes(z.z(), z.z(), z1z1[:])
	fp.SubLanes(z.z(), z.z(), z2z2[:])
	fp.MulLanes(z.z(), z.z(), hl[:])
	return hl[0].ZeroMask(), rl[0].ZeroMask()
}

// chord sets z's X = r² − j − 2v and Y = r·(v − X) − 2·y·j, the tail
// both additions share; t is scratch.
func (z *jacLanes) chord(y, r, j, v, t []fp.Lanes) {
	fp.MulLanes(z.x(), r, r)
	fp.SubLanes(z.x(), z.x(), j)
	fp.SubLanes(z.x(), z.x(), v)
	fp.SubLanes(z.x(), z.x(), v)
	fp.SubLanes(t, v, z.x())
	fp.MulLanes(z.y(), r, t)
	fp.MulLanes(t, y, j)
	fp.AddLanes(t, t, t)
	fp.SubLanes(z.y(), z.y(), t)
}

// double sets z = 2p lane-wise by Double's formula (dbl-2009-l). z must
// not be p.
func (z *jacLanes) double(p *jacLanes) {
	var a, b, c, d, e, t [1]fp.Lanes
	fp.MulLanes(a[:], p.x(), p.x())
	fp.MulLanes(b[:], p.y(), p.y())
	fp.MulLanes(c[:], b[:], b[:])
	fp.AddLanes(d[:], p.x(), b[:])
	fp.MulLanes(d[:], d[:], d[:])
	fp.SubLanes(d[:], d[:], a[:])
	fp.SubLanes(d[:], d[:], c[:])
	fp.AddLanes(d[:], d[:], d[:])
	fp.AddLanes(e[:], a[:], a[:])
	fp.AddLanes(e[:], e[:], a[:])
	fp.MulLanes(z.x(), e[:], e[:])
	fp.SubLanes(z.x(), z.x(), d[:])
	fp.SubLanes(z.x(), z.x(), d[:])
	fp.SubLanes(t[:], d[:], z.x())
	fp.MulLanes(z.y(), e[:], t[:])
	fp.AddLanes(c[:], c[:], c[:])
	fp.AddLanes(c[:], c[:], c[:])
	fp.AddLanes(c[:], c[:], c[:])
	fp.SubLanes(z.y(), z.y(), c[:])
	fp.MulLanes(z.z(), p.y(), p.z())
	fp.AddLanes(z.z(), z.z(), z.z())
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
// shrinks ~4×. A tier moves only where a width beats it by more than 5% in
// every pass of BenchmarkMSMWindowSweep (tier ±2, one worker, five
// alternating passes, 2-core runner). Last re-taken after the chord queue
// was staged in lane layout and the reduction moved to fp.Lanes, which
// cut costJac about 4× and costAffine a little: no width won every pass,
// so the tiers stayed. At 2^15 c=13 (212–256 ms) led c=12 (214–260) in
// four passes by 1–2%; at 2^16 c=13 (383–445) led c=12 (399–440) in three
// passes of five; at 2^17 c=13 (745–960) and c=14 (732–986) traded the
// lead; at 2^10 c=8, 9 and 10 (12–22 ms) were within the spread. The
// tiers from 2^18 up date from the GLV rewrite and were not re-measured.
// The tiers below 2^12 were fitted with one table per window; once a
// table spanned its group of windows they were re-taken at 2^4–2^12 by
// the same rule, and again no width won every pass, so none moved. The
// nearest were c=4 at 2^5 (0.81–1.01 ms against the tier's 0.84–1.45,
// ahead by >5% in four passes of five) and c=5 at 2^6 (three of five);
// at 2^8–2^12 the tier led or sat within a run-to-run spread of up to 2×
// on this shared host.
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
	case n < 1<<16:
		return 12
	case n < 1<<18:
		return 13
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
