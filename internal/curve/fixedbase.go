package curve

import (
	"zkphire/internal/ff"
	"zkphire/internal/parallel"
)

// FixedBaseTable precomputes windowed multiples of a fixed base point so
// that scalar multiplications cost ~ceil(255/window) mixed additions instead
// of ~255 doublings. PCS setup (thousands of multiplications of the
// generator) uses this; it mirrors the precomputed-point ROM common in MSM
// hardware.
type FixedBaseTable struct {
	window  int
	flat    []G1Affine   // one backing array for every window's entries
	entries [][]G1Affine // entries[w][d-1] = d·2^{w·window}·base
}

// NewFixedBaseTableSized picks the window width from the expected number of
// scalar multiplications the table will serve: wider windows cost more to
// build (2^w points per window) but make each multiplication cheaper (fewer
// windows). SRS setup sizes its table this way — the table for a 2^20-entry
// setup is worth several extra bits of window.
func NewFixedBaseTableSized(base G1Affine, expectedMuls int) *FixedBaseTable {
	return NewFixedBaseTable(base, fixedBaseWindow(expectedMuls))
}

// fixedBaseWindow minimizes build + usage point-additions over the window
// width: ceil(255/w)·(2^w − 1) build additions against expectedMuls·
// ceil(255/w) per-use additions, with the width capped so the table stays a
// few tens of MiB even for huge setups.
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

// Mul returns k·base.
func (t *FixedBaseTable) Mul(k *ff.Element) G1Jac {
	var acc G1Jac
	acc.SetInfinity()
	limbs := k.Regular()
	for w := range t.entries {
		d := extractDigit(&limbs, w*t.window, t.window)
		if d == 0 {
			continue
		}
		acc.AddMixed(&t.entries[w][d-1])
	}
	return acc
}

// MulManyWorkers applies Mul to each scalar on a worker budget (<= 0 means
// GOMAXPROCS), returning affine points. Each scalar multiplication is
// independent and lands in its own slot, so the result is identical across
// budgets.
func (t *FixedBaseTable) MulManyWorkers(ks []ff.Element, workers int) []G1Affine {
	jacs := jacArena.Get(len(ks))
	defer jacArena.Put(jacs)
	parallel.ForGrain(workers, len(ks), pointGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			jacs[i] = t.Mul(&ks[i])
		}
	})
	return BatchFromJacobianWorkers(jacs, workers)
}
