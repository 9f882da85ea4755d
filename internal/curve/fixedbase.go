package curve

import (
	"zkphire/internal/ff"
	"zkphire/internal/fp"
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
// windows). SRS setup sizes its table by its top level: width 13 at 2^17
// multiplications, 14 from 2^18 up.
func NewFixedBaseTableSized(base G1Affine, expectedMuls int) *FixedBaseTable {
	return NewFixedBaseTable(base, fixedBaseWindow(expectedMuls))
}

// fixedBaseWindow minimizes build + usage point-additions over the window
// width: ceil(255/w)·(2^w − 1) build additions against expectedMuls·
// ceil(255/w) per-use additions, with the width capped so the table stays a
// few tens of MiB even for huge setups. A per-use addition is batch-affine
// and costs about half a build addition, yet counting them alike still
// picks within 5% of the best measured width at 2^17 and 2^19 (DESIGN §4).
func fixedBaseWindow(expectedMuls int) int {
	const scalarBits = 255
	best, bestCost := 8, int64(1)<<62
	for w := 4; w <= 14; w++ {
		numWindows := int64((scalarBits + w - 1) / w)
		cost := numWindows*(1<<uint(w)-1) + int64(expectedMuls)*numWindows
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
// window in MulManyWorkers: at 1024 lanes the Fermat inversion (~570
// multiplications) costs each addition about half a multiplication.
const fixedBaseBatch = 1024

// MulManyWorkers returns k·base for every scalar on a worker budget (<= 0
// means GOMAXPROCS). Lanes accumulate in affine coordinates, one window at
// a time: every lane that needs a chord in window w queues its slope
// denominator, and one batch inversion (batchInvertFp) serves the whole
// queue, as in the MSM's bucket accumulation. Affine points are unique, so
// the result is identical across budgets and batchings.
func (t *FixedBaseTable) MulManyWorkers(ks []ff.Element, workers int) []G1Affine {
	out := make([]G1Affine, len(ks))
	parallel.ForGrain(workers, len(ks), pointGrain, func(lo, hi int) {
		s := newLaneScratch(min(hi-lo, fixedBaseBatch))
		for b := lo; b < hi; b += fixedBaseBatch {
			e := min(b+fixedBaseBatch, hi)
			t.mulLanes(ks[b:e], out[b:e], &s)
		}
	})
	return out
}

// laneScratch holds one batch's scalars and queued chord additions.
type laneScratch struct {
	limbs    [][ff.Limbs]uint64
	lane     []int32      // queued addition j adds into out[lane[j]]
	digit    []uint32     // ... the window entry digit[j]
	num, den []fp.Element // ... along the chord of slope num[j]/den[j]
	inv      []fp.Element // batchInvertFp's prefix products
}

func newLaneScratch(n int) laneScratch {
	return laneScratch{
		limbs: make([][ff.Limbs]uint64, n),
		lane:  make([]int32, n),
		digit: make([]uint32, n),
		num:   make([]fp.Element, n),
		den:   make([]fp.Element, n),
		inv:   make([]fp.Element, n),
	}
}

// mulLanes sets out[i] = ks[i]·base for one batch of lanes.
func (t *FixedBaseTable) mulLanes(ks []ff.Element, out []G1Affine, s *laneScratch) {
	for i := range ks {
		s.limbs[i] = ks[i].Regular()
		out[i].SetInfinity()
	}
	for w, row := range t.entries {
		m := 0
		for i := range ks {
			d := extractDigit(&s.limbs[i], w*t.window, t.window)
			if d == 0 || addDirect(&out[i], &row[d-1]) {
				continue
			}
			p, q := &out[i], &row[d-1]
			s.lane[m], s.digit[m] = int32(i), d
			s.num[m].Sub(&q.Y, &p.Y)
			s.den[m].Sub(&q.X, &p.X)
			m++
		}
		batchInvertFp(s.den[:m], s.inv)
		var lambda, x3, y3 fp.Element
		for j := 0; j < m; j++ {
			p, q := &out[s.lane[j]], &row[s.digit[j]-1]
			lambda.Mul(&s.num[j], &s.den[j])
			x3.Square(&lambda)
			x3.Sub(&x3, &p.X)
			x3.Sub(&x3, &q.X)
			y3.Sub(&p.X, &x3)
			y3.Mul(&y3, &lambda)
			y3.Sub(&y3, &p.Y)
			p.X, p.Y = x3, y3
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
