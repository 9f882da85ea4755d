package curve

import (
	"context"

	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
)

// streamMaxWindow caps StreamMSM's window width. A stream keeps one bucket
// table per window alive from the first chunk to Sum — ⌈128/c⌉ tables of
// 2^(c−1) 96-byte affine buckets and, once a drain needs them, as many
// 144-byte Jacobian overflow buckets: 2.2 + 3.2 MB at c = 12 — where the
// one-shot MSM holds only the tables of its tasks in flight. On the
// memory-budgeted workload c = 13 moved proof latency by less than the
// run-to-run spread for twice the resident tables (DESIGN.md §8 has the
// table).
const streamMaxWindow = 12

// StreamMSM is one Pippenger pass over a point set that arrives in chunks —
// an offloaded SRS level streaming its basis from disk. The window width
// comes from the total point count given to NewStreamMSM, not from the
// chunk size, and each window's bucket table persists across chunks: the
// bucket additions and the one reduction per window are those of a single
// MSM over the concatenated input, whatever the chunking, and the sum is the
// same group element. Chunks may arrive in any order. As in every MSM here,
// zero scalars drop out and one scalars are summed beside the buckets, so a
// mostly-0/1 table streams at the cost of its other entries.
//
// Add may be called from one goroutine at a time. Its parallelism is the
// window count — each window's table is one task per chunk, ⌈128/12⌉ = 11
// at the cap — so on a host with more cores than windows the rest sit idle
// during a streamed MSM, where the one-shot MSM also splits the points
// into chunks. After an Add error the stream is unusable. Sum is called
// once and returns the tables to the arenas.
type StreamMSM struct {
	c       int
	workers int
	windows []bucketTable
	ones    G1Jac
}

// NewStreamMSM starts a streamed MSM on a worker budget (<= 0 means
// GOMAXPROCS). n sizes the window: the number of points whose scalar is
// neither 0 nor 1 if the caller knows it, else the total. It bounds
// nothing; any number of points may be added.
func NewStreamMSM(n, workers int) *StreamMSM {
	c := min(windowSize(n), streamMaxWindow)
	m := &StreamMSM{c: c, workers: workers, windows: make([]bucketTable, (glvScalarBits+c-1)/c)}
	for wi := range m.windows {
		m.windows[wi] = newBucketTable(c)
	}
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
	if len(points) > 0 {
		splits := splitArena.Get(len(points))
		defer splitArena.Put(splits)
		ones := splitScalars(m.workers, points, scalars, splits)
		m.ones.AddAssign(&ones)
		parallel.Run(m.workers, len(m.windows), func(wi int) {
			m.windows[wi].accumulate(ctx, points, endoX, splits, wi)
		})
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// Sum reduces every window and returns the MSM.
func (m *StreamMSM) Sum() G1Jac {
	sums := make([]G1Jac, len(m.windows))
	parallel.Run(m.workers, len(m.windows), func(wi int) {
		sums[wi] = m.windows[wi].reduce()
		m.windows[wi].release()
	})
	m.windows = nil
	res := combineWindows(sums, m.c)
	res.AddAssign(&m.ones)
	return res
}
