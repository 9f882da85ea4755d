package curve

import (
	"context"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// streamMaxWindow caps the window NewStreamMSM picks. A multi-chunk stream
// keeps every table it has touched alive from the first chunk to Sum —
// 2^(c−1) 96-byte affine buckets each and, once a drain needs them, as many
// 144-byte Jacobian overflow buckets: 2.2 + 3.2 MB per lane at c = 12 —
// where the one-shot MSM holds only the tables of its tasks in flight and
// keeps the uncapped windowSize. On the memory-budgeted workload c = 13
// moved proof latency by less than the run-to-run spread for twice the
// resident tables (DESIGN.md §8 has the table). Re-checked after the
// flush moved to the fp.Lanes kernel (at 2^16 points c=12, 442–479 ms,
// led c=13, 442–494 ms, in four of five passes) and again after the
// reduction did (windowSize's sweep: c=12 and c=13 within 5% at 2^15,
// c=13 ahead in three passes of five at 2^16), so the cap still costs the
// stream little and keeps its tables half the size.
const streamMaxWindow = 12

// StreamMSM is the one Pippenger driver: a pass over a point set that
// arrives in chunks — an offloaded SRS level streaming its basis from disk,
// or all at once as the one-shot MSM. The window comes from the point count
// given up front, and the bucket tables persist across chunks, so the
// bucket additions and the one reduction per table are those of a single
// MSM over the concatenated input, whatever the chunking, and chunks may
// arrive in any order. As in every MSM here, 0 and 1 scalars never reach a
// bucket, and a chunk with no other scalar runs no table task.
//
// The tables form a (window × lane) grid, one task per table per chunk:
// each chunk is cut into one slice per lane. Lanes fill the workers the
// windows leave idle, ⌈workers ÷ windows⌉, capped so every lane amortizes
// its 2^(c−1)-bucket reduction over at least as many point pairs; they are
// 1 whenever workers ≤ windows. A table is created by the first chunk that
// reaches it; Sum adds the lane sums in one Horner pass over the windows.
//
// Add may be called from one goroutine at a time; after an Add error the
// stream is unusable. Sum is called once and returns the tables to the
// arenas.
type StreamMSM struct {
	c, workers, lanes int
	tables            []bucketTable // window wi, lane li at wi·lanes+li
	ones              G1Jac
}

// NewStreamMSM starts a streamed MSM on a worker budget (<= 0 means
// GOMAXPROCS). n sizes the window and lanes: the number of points whose
// scalar is neither 0 nor 1 (CountDense) if the caller knows it, else the
// total. It bounds nothing; any number of points may be added.
func NewStreamMSM(n, workers int) *StreamMSM {
	return newStreamMSM(min(windowSize(n), streamMaxWindow), n, workers)
}

// newStreamMSM lays out the grid for count bucketed points at width c.
func newStreamMSM(c, count, workers int) *StreamMSM {
	w := parallel.Workers(workers)
	numWindows := (glvScalarBits + c - 1) / c
	lanes := max(1, min((w+numWindows-1)/numWindows, (2*count)>>uint(c-1)))
	m := &StreamMSM{c: c, workers: w, lanes: lanes, tables: make([]bucketTable, numWindows*lanes)}
	m.ones.SetInfinity()
	return m
}

// Add accumulates Σ scalars[i]·points[i] into the stream; endoX is the
// chunk's φ-table (EndoPointsInto). It polls ctx inside the bucket
// accumulation and returns ctx.Err() if it fired.
func (m *StreamMSM) Add(ctx context.Context, points []G1Affine, endoX []fp.Element, scalars []ff.Element) error {
	if len(points) != len(scalars) || len(endoX) != len(points) {
		panic("curve: MSM length mismatch")
	}
	splits := splitArena.Get(len(points))
	defer splitArena.Put(splits)
	ones, count := splitScalars(m.workers, points, scalars, splits)
	m.ones.AddAssign(&ones)
	if count > 0 {
		m.pass(ctx, points, endoX, splits, false)
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// pass runs one chunk through the grid. With final set, each task then
// reduces its table and releases it, so a one-chunk MSM holds only the
// tables of the tasks in flight, and pass returns the reductions.
func (m *StreamMSM) pass(ctx context.Context, points []G1Affine, endoX []fp.Element, splits []glvSplit, final bool) (sums []G1Jac) {
	n := len(points)
	laneLen := (n + m.lanes - 1) / m.lanes
	if final {
		sums = make([]G1Jac, len(m.tables))
	}
	parallel.Run(m.workers, len(m.tables), func(task int) {
		t := &m.tables[task]
		lo := min(task%m.lanes*laneLen, n)
		hi := min(lo+laneLen, n)
		if lo < hi && (ctx == nil || ctx.Err() == nil) {
			if t.buckets == nil {
				*t = newBucketTable(m.c)
			}
			t.accumulate(ctx, points[lo:hi], endoX[lo:hi], splits[lo:hi], task/m.lanes)
		}
		if final {
			sums[task] = t.reduce()
			t.release()
		}
	})
	return sums
}

// Sum reduces every table and returns the MSM.
func (m *StreamMSM) Sum() G1Jac {
	return m.combine(m.pass(nil, nil, nil, nil, true))
}

// combine returns Σ 2^{wi·c} · (window wi's lane sums) plus the ones,
// Horner-style from the top window down.
func (m *StreamMSM) combine(sums []G1Jac) G1Jac {
	var res G1Jac
	res.SetInfinity()
	for wi := len(sums)/m.lanes - 1; wi >= 0; wi-- {
		for k := 0; k < m.c; k++ {
			res.Double(&res)
		}
		for li := range m.lanes {
			res.AddAssign(&sums[wi*m.lanes+li])
		}
	}
	return *res.AddAssign(&m.ones)
}
