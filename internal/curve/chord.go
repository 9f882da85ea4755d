package curve

import (
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// laneArena holds the chord queues' rows.
var laneArena parallel.Arena[fp.Lanes]

// chordQueue is the batch-affine addition under the MSM's bucket flush and
// fixed-base setup, staged in lane layout: push writes queued addition i
// straight into lane i mod 8 of group i/8 of the operand rows (fp.Lanes'
// staged form, one copy per operand). A flush adds each (x1, y1) to the
// point (x2, y2) along the line through them (a chord, or the tangent for
// a doubling) with one shared inversion:
//
//	λ = (y2 − y1)/(x2 − x1) or 3x1²/2y1,  x3 = λ² − x1 − x2,  y3 = λ·(x1 − x3) − y1.
//
// Every step is a row operation on fp.Lanes: the rows are packed into the
// arithmetic form block by block, the slope fractions and the tangents are
// lane operations, and the prefix chain of the batch inversion runs as
// eight interleaved chains, one per lane, and stays in lanes between its
// forward and backward pass; the eight chain products share one
// inversion. x2 is staged in den and y2 in num, which the slope fractions
// overwrite; x1 + x2 is recovered as den + 2x1 (2x1 for a tangent), so
// five rows hold a flush. The sums are unpacked in place for sum to read.
// A short last group's dead lanes take den = 1 and their results are
// never read.
type chordQueue struct {
	x1, y1, num, den, prefix []fp.Lanes                     // a flush leaves x3 in prefix, y3 in y1
	dbl                      [maxBatch / fp.LaneCount]uint8 // per group, the lanes queued as doublings
	m                        int                            // queued additions
}

// chordBlock is how many groups a flush runs through its row operations
// at a time, so that each block's rows stay in cache across them.
const chordBlock = 16

// init sets q up for n additions (a multiple of fp.LaneCount, at most
// maxBatch) with its rows from laneArena; release returns them.
func (q *chordQueue) init(n int) {
	g := n / fp.LaneCount
	*q = chordQueue{}
	q.x1, q.y1 = laneArena.Get(g), laneArena.Get(g)
	q.num, q.den = laneArena.Get(g), laneArena.Get(g)
	q.prefix = laneArena.Get(g)
}

func (q *chordQueue) release() {
	for _, r := range [][]fp.Lanes{q.x1, q.y1, q.num, q.den, q.prefix} {
		laneArena.Put(r)
	}
}

// push queues the addition of (x2, y2) to (x1, y1); double marks a
// doubling (x1 = x2, y1 = y2 ≠ 0). Every other addition needs x1 ≠ x2.
func (q *chordQueue) push(x1, y1, x2, y2 *fp.Element, double bool) {
	g, l := q.m/fp.LaneCount, q.m%fp.LaneCount
	q.x1[g].Set(l, x1)
	q.y1[g].Set(l, y1)
	q.den[g].Set(l, x2)
	q.num[g].Set(l, y2)
	if double {
		q.dbl[g] |= 1 << l
	}
	q.m++
}

// sum sets (x, y) to the result of queued addition i of the last flush.
func (q *chordQueue) sum(i int, x, y *fp.Element) {
	g, l := i/fp.LaneCount, i%fp.LaneCount
	q.prefix[g].Get(l, x)
	q.y1[g].Get(l, y)
}

// flush completes the queued additions, empties the queue and returns how
// many there were; sum reads their results until the next push.
func (q *chordQueue) flush() int {
	m := q.m
	if m == 0 {
		return 0
	}
	q.m = 0
	n := (m + fp.LaneCount - 1) / fp.LaneCount
	x1, y1, num, den, prefix := q.x1[:n], q.y1[:n], q.num[:n], q.den[:n], q.prefix[:n]
	oneFp := fp.One()
	var one, acc, inv [1]fp.Lanes
	one[0].Broadcast(&oneFp)
	acc[0] = one[0]

	// Forward: the slope fractions num = y2 − y1 and den = x2 − x1 (or
	// the tangent's), then prefix[g] = the lane-wise product of den[0..g).
	for lo := 0; lo < n; lo += chordBlock {
		hi := min(lo+chordBlock, n)
		for _, r := range [][]fp.Lanes{x1, y1, num, den} {
			fp.PackLanes(r[lo:hi])
		}
		fp.SubLanes(num[lo:hi], num[lo:hi], y1[lo:hi])
		fp.SubLanes(den[lo:hi], den[lo:hi], x1[lo:hi])
		for g := lo; g < hi; g++ {
			if q.dbl[g] != 0 {
				q.tangents(g)
			}
			if live := m - g*fp.LaneCount; live < fp.LaneCount {
				den[g].Blend(^uint8(1<<live-1), &one[0])
			}
			prefix[g] = acc[0]
			fp.MulLanes(acc[:], acc[:], den[g:g+1])
		}
	}

	var chains, scratch [fp.LaneCount]fp.Element
	fp.UnpackLanes(acc[:])
	for l := range chains {
		if acc[0].Get(l, &chains[l]); chains[l].IsZero() {
			panic("curve: zero slope denominator")
		}
	}
	batchInvertFp(chains[:], scratch[:])
	for l := range chains {
		inv[0].Set(l, &chains[l])
	}
	fp.PackLanes(inv[:])

	// Backward, one block at a time from the top: 1/den into prefix; then
	// λ into num, x1 + x2 into den, x3 into prefix and y3 into y1, the
	// last two unpacked for sum.
	var x2 [1]fp.Lanes
	for hi := n; hi > 0; hi -= chordBlock {
		lo := max(hi-chordBlock, 0)
		for g := hi - 1; g >= lo; g-- {
			fp.MulLanes(prefix[g:g+1], prefix[g:g+1], inv[:])
			fp.MulLanes(inv[:], inv[:], den[g:g+1])
		}
		lam, a1, b1, s, a3 := num[lo:hi], x1[lo:hi], y1[lo:hi], den[lo:hi], prefix[lo:hi]
		fp.MulLanes(lam, lam, a3)
		fp.AddLanes(s, s, a1)
		fp.AddLanes(s, s, a1)
		for g := lo; g < hi; g++ {
			if q.dbl[g] != 0 {
				fp.AddLanes(x2[:], x1[g:g+1], x1[g:g+1])
				den[g].Blend(q.dbl[g], &x2[0])
				q.dbl[g] = 0
			}
		}
		fp.MulLanes(a3, lam, lam)
		fp.SubLanes(a3, a3, s)
		fp.SubLanes(s, a1, a3)
		fp.MulLanes(s, s, lam)
		fp.SubLanes(b1, s, b1)
		fp.UnpackLanes(a3)
		fp.UnpackLanes(b1)
	}
	return m
}

// tangents turns group g's doubling lanes into tangents: num = 3x1² and
// den = 2y1. Its dbl bits stay for the backward pass.
func (q *chordQueue) tangents(g int) {
	var sq, d [1]fp.Lanes
	x1, y1 := q.x1[g:g+1], q.y1[g:g+1]
	fp.MulLanes(sq[:], x1, x1)
	fp.AddLanes(d[:], sq[:], sq[:])
	fp.AddLanes(sq[:], d[:], sq[:])
	fp.AddLanes(d[:], y1, y1)
	q.num[g].Blend(q.dbl[g], &sq[0])
	q.den[g].Blend(q.dbl[g], &d[0])
}
