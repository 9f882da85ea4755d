package curve

import (
	"zkphire/internal/ff"
	"zkphire/internal/parallel"
)

// FixedBaseTable precomputes windowed multiples of a fixed base point so
// that a scalar multiplication costs ~ceil(255/window) additions instead of
// ~255 doublings. SRS setup computes its top level (2^maxVars multiples of
// the generator) through MulManyWorkers; it mirrors the precomputed-point
// ROM common in MSM hardware.
type FixedBaseTable struct {
	window  int
	flat    []G1Affine   // one backing array for every window's entries
	entries [][]G1Affine // entries[w][d-1] = d·2^{w·window}·base
}

// NewFixedBaseTableSized picks the window width from the expected number of
// scalar multiplications the table will serve: wider windows cost more to
// build (2^w points per window) but make each multiplication cheaper (fewer
// windows). SRS setup sizes its table by its top level: width 6 at 2^11
// multiplications, 10 from 2^15 up.
func NewFixedBaseTableSized(base G1Affine, expectedMuls int) *FixedBaseTable {
	return NewFixedBaseTable(base, fixedBaseWindow(expectedMuls))
}

// fixedBaseWindow minimizes build + usage cost over the window width:
// ceil(255/w)·(2^w − 1) Jacobian build additions against expectedMuls·
// ceil(255/w) batch-affine per-use additions, a per-use addition weighted
// at an eighth of a build addition (the fp.Lanes flush; measured 0.15–0.3,
// growing with the table as its lookups leave cache), with the width
// capped at 10 (a 2.7 MB table) because wider tables lost to those misses
// at every size timed. It picks the fastest measured width at 2^11 and
// 2^19 and one within the pass spread at 2^17 (DESIGN §4).
func fixedBaseWindow(expectedMuls int) int {
	const scalarBits = 255
	best, bestCost := 4, int64(1)<<62
	for w := 4; w <= 10; w++ {
		numWindows := int64((scalarBits + w - 1) / w)
		cost := numWindows * (8*(1<<uint(w)-1) + int64(expectedMuls))
		if cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// NewFixedBaseTable builds a table for base with the given window width in
// bits. The per-window digit multiples are built concurrently (each window's
// chain needs only its own base power, produced by one serial doubling run),
// the Jacobian intermediates live in the pooled scratch arena, and a single
// batch normalization converts the whole table at once.
func NewFixedBaseTable(base G1Affine, window int) *FixedBaseTable {
	if window < 1 || window > 16 {
		panic("curve: unreasonable fixed-base window")
	}
	const scalarBits = 255
	numWindows := (scalarBits + window - 1) / window
	count := (1 << uint(window)) - 1
	t := &FixedBaseTable{window: window, entries: make([][]G1Affine, numWindows)}

	// Serial doubling chain: windowBase[w] = 2^{w·window}·base. Only 255
	// doublings total; everything after is parallel.
	windowBase := jacArena.Get(numWindows)
	defer jacArena.Put(windowBase)
	var cur G1Jac
	cur.FromAffine(&base)
	for w := 0; w < numWindows; w++ {
		windowBase[w] = cur
		if w+1 < numWindows {
			for k := 0; k < window; k++ {
				cur.Double(&cur)
			}
		}
	}

	// Fill each window's digit multiples d·windowBase[w] (a running sum, so
	// count additions per window) into one flat pooled scratch buffer, then
	// normalize the whole table with a single batch inversion pass.
	jacs := jacArena.Get(numWindows * count)
	defer jacArena.Put(jacs)
	parallel.Run(0, numWindows, func(w int) {
		row := jacs[w*count : (w+1)*count]
		var acc G1Jac
		acc.SetInfinity()
		for d := 0; d < count; d++ {
			acc.AddAssign(&windowBase[w])
			row[d] = acc
		}
	})
	t.flat = BatchFromJacobianWorkers(jacs, 0)
	for w := 0; w < numWindows; w++ {
		t.entries[w] = t.flat[w*count : (w+1)*count]
	}
	return t
}

// fixedBaseBatch is the lane count that shares one batch inversion per
// window in MulManyWorkers: at 1024 lanes the inversion (a binary GCD,
// about 100 multiplications' time) costs each addition about a tenth of a
// multiplication. A multiple of fp.LaneCount, so full batches fill every
// lane group of the chord queue.
const fixedBaseBatch = 1024

// MulManyWorkers returns k·base for every scalar on a worker budget (<= 0
// means GOMAXPROCS). Lanes accumulate in affine coordinates, one window at
// a time: every lane that needs a chord in window w queues it in a
// chordQueue, and one batch inversion serves the whole queue, as in the
// MSM's bucket accumulation. Affine points are unique, so the result is
// identical across budgets and batchings.
func (t *FixedBaseTable) MulManyWorkers(ks []ff.Element, workers int) []G1Affine {
	out := make([]G1Affine, len(ks))
	parallel.ForGrain(workers, len(ks), pointGrain, func(lo, hi int) {
		var s laneScratch
		s.chords.init(fixedBaseBatch)
		defer s.chords.release()
		for b := lo; b < hi; b += fixedBaseBatch {
			e := min(b+fixedBaseBatch, hi)
			t.mulLanes(ks[b:e], out[b:e], &s)
		}
	})
	return out
}

// laneScratch holds one batch's scalars and queued chord additions.
type laneScratch struct {
	limbs  [fixedBaseBatch][ff.Limbs]uint64
	lane   [fixedBaseBatch]int32 // queued addition j adds into out[lane[j]]
	chords chordQueue
}

// mulLanes sets out[i] = ks[i]·base for one batch of lanes.
func (t *FixedBaseTable) mulLanes(ks []ff.Element, out []G1Affine, s *laneScratch) {
	for i := range ks {
		s.limbs[i] = ks[i].Regular()
		out[i].SetInfinity()
	}
	for w, row := range t.entries {
		for i := range ks {
			d := extractDigit(&s.limbs[i], w*t.window, t.window)
			if d == 0 || addDirect(&out[i], &row[d-1]) {
				continue
			}
			p, q := &out[i], &row[d-1]
			s.lane[s.chords.m] = int32(i)
			s.chords.push(&p.X, &p.Y, &q.X, &q.Y, false)
		}
		for j, i := range s.lane[:s.chords.flush()] {
			s.chords.sum(j, &out[i].X, &out[i].Y)
		}
	}
}

// addDirect sets p += q and reports true when the sum needs no chord
// slope: p is the identity (p becomes q), or p and q share x, so q = p
// doubles and q = −p empties. The shared-x case goes through Jacobian
// AddMixed and its own inversion; reduced scalars essentially never reach
// it. Otherwise addDirect leaves p alone and reports false. Table entries
// are never the identity (d·2^{w·window} is never a multiple of the prime
// group order).
func addDirect(p, q *G1Affine) bool {
	switch {
	case p.Infinity:
		*p = *q
	case p.X.Equal(&q.X):
		var j G1Jac
		j.FromAffine(p)
		j.AddMixed(q)
		p.FromJacobian(&j)
	default:
		return false
	}
	return true
}
