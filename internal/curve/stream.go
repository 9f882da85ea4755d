package curve

import (
	"context"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// streamMaxWindow caps the window NewStreamMSM picks. A multi-chunk stream
// keeps every table it has touched alive from the first chunk to Sum —
// 2^(c−1) 96-byte affine buckets per window, 2.2 MB per lane at c = 12 —
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
// The tables form a (window group × lane) grid, one task per table per
// chunk. A group is up to g = max(1, min(maxBatch >> (c−1),
// ⌈windows ÷ workers⌉)) consecutive windows sharing one table, one queue
// and one lane reduction, so no table outgrows a flush, a small MSM pays
// its flushes and reduction once per group instead of once per window,
// and from c = 13 up g = 1. Each chunk is cut into one slice per lane.
// Lanes fill the workers the groups leave idle, ⌈workers ÷ groups⌉,
// capped so every lane amortizes its 2^(c−1) buckets per window over at
// least as many point pairs. A table is created by the first chunk that
// reaches it; Sum adds the lane sums in one Horner pass over the windows.
//
// Add may be called from one goroutine at a time; after an Add error the
// stream is unusable. Sum is called once and returns the tables to the
// arenas.
type StreamMSM struct {
	c, workers, lanes int
	windows, group    int           // windows, and windows per group
	tables            []bucketTable // group gi, lane li at gi·lanes+li
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
	windows := (glvScalarBits + c - 1) / c
	group := max(1, min(maxBatch>>uint(c-1), (windows+w-1)/w))
	groups := (windows + group - 1) / group
	lanes := max(1, min((w+groups-1)/groups, (2*count)>>uint(c-1)))
	m := &StreamMSM{c: c, workers: w, lanes: lanes, windows: windows, group: group, tables: make([]bucketTable, groups*lanes)}
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
// reduces its table (unless ctx fired: the sum is discarded) and releases
// it, so a one-chunk MSM holds only the tables of the tasks in flight,
// and pass returns the window sums, lane li's window wi at li·windows+wi.
func (m *StreamMSM) pass(ctx context.Context, points []G1Affine, endoX []fp.Element, splits []glvSplit, final bool) (sums []G1Jac) {
	n := len(points)
	laneLen := (n + m.lanes - 1) / m.lanes
	if final {
		sums = make([]G1Jac, m.windows*m.lanes)
		for i := range sums {
			sums[i].SetInfinity()
		}
	}
	parallel.Run(m.workers, len(m.tables), func(task int) {
		t := &m.tables[task]
		li, w0 := task%m.lanes, task/m.lanes*m.group
		lo := min(li*laneLen, n)
		hi := min(lo+laneLen, n)
		if lo < hi && (ctx == nil || ctx.Err() == nil) {
			if t.buckets == nil {
				*t = newBucketTable(m.c, min(m.group, m.windows-w0))
			}
			t.accumulate(ctx, points[lo:hi], endoX[lo:hi], splits[lo:hi], w0)
		}
		if final {
			if ctx == nil || ctx.Err() == nil {
				t.reduce(sums[li*m.windows+w0:])
			}
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
	for wi := m.windows - 1; wi >= 0; wi-- {
		for k := 0; k < m.c; k++ {
			res.Double(&res)
		}
		for li := range m.lanes {
			res.AddAssign(&sums[li*m.windows+wi])
		}
	}
	return *res.AddAssign(&m.ones)
}
