package pcs

import (
	"context"
	"fmt"
	"sync"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
)

// streamGatherThreshold is the minimum segment size the stream committer
// sends to the MSM directly. The Pippenger amortization (one bucket-table
// reduction per (window, chunk) task) collapses on tiny inputs, and the
// product tree's upper levels halve forever — so segments below the
// threshold gather into a pending batch that flushes as one MSM. 2^15 keeps
// the streamed total within ~1% of the monolithic commit while still
// overlapping the bulk of the work (the leaves plus the first level are
// 3/4 of all scalars).
const streamGatherThreshold = 1 << 15

// StreamCommitter accumulates a commitment to a table that is produced in
// segments — the permutation product tree, whose leaves are final long
// before the upper levels exist. Feed adds a finished segment's partial MSM
// into a running group sum; Finish normalizes. Because group addition is
// exact and associative and FromJacobian is canonical, the final commitment
// is byte-identical to CommitWorkers over the assembled table, regardless
// of segmentation or budget.
//
// Basis access routes through the SRS: on an offloaded SRS, large segments
// stream through the chunked MSM (msmRangeCtx) and the sub-threshold gather
// materializes its basis ranges only at flush time, into arena scratch —
// the committer never holds more than one chunk of basis points.
//
// Feed may be called from one goroutine at a time; the committer is not
// otherwise concurrency-safe. The prover commits assembled tables
// (CommitCtx); the one caller left is the frozen benchmark's
// pcs.stream_commit16_s layer metric.
type StreamCommitter struct {
	srs     *SRS
	numVars int
	size    int

	mu  sync.Mutex
	acc curve.G1Jac
	fed int

	// pending gather for sub-threshold segments: the copied scalars, flat,
	// plus each segment's table offset and length (basis ranges are
	// materialized at flush).
	pendScalars []ff.Element
	pendOffs    []int
	pendLens    []int
}

// CommitStream starts a streamed commitment to a numVars-variable table.
func (s *SRS) CommitStream(numVars int) (*StreamCommitter, error) {
	if numVars > s.MaxVars {
		return nil, fmt.Errorf("pcs: table has %d vars, SRS supports %d", numVars, s.MaxVars)
	}
	sc := &StreamCommitter{
		srs:     s,
		numVars: numVars,
		size:    1 << uint(numVars),
	}
	sc.acc.SetInfinity()
	return sc, nil
}

// Feed absorbs vals as the table segment [offset, offset+len(vals)). Every
// index must be fed exactly once before Finish; segments may arrive in any
// order. Large segments run one partial MSM on the given worker budget
// (polling ctx, see MSMEndoWorkersCtx); small ones gather until a batch is
// worth a Pippenger pass. vals is read during the call only.
func (c *StreamCommitter) Feed(ctx context.Context, offset int, vals []ff.Element, workers int) error {
	if offset < 0 || offset+len(vals) > c.size {
		return fmt.Errorf("pcs: stream segment [%d,%d) outside table of size %d", offset, offset+len(vals), c.size)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fed += len(vals)
	if len(vals) < streamGatherThreshold {
		c.pendScalars = append(c.pendScalars, vals...)
		c.pendOffs = append(c.pendOffs, offset)
		c.pendLens = append(c.pendLens, len(vals))
		if len(c.pendScalars) >= streamGatherThreshold {
			return c.flushLocked(ctx, workers)
		}
		return nil
	}
	part, err := c.srs.msmRangeCtx(ctx, c.numVars, offset, vals, workers, false)
	if err != nil {
		return err
	}
	c.acc.AddAssign(&part)
	return nil
}

// flushLocked materializes the pending segments' basis ranges into arena
// scratch and runs the gather as one MSM. Caller holds mu.
func (c *StreamCommitter) flushLocked(ctx context.Context, workers int) error {
	total := len(c.pendScalars)
	if total == 0 {
		return nil
	}
	pts := basisArena.Get(total)
	endo := endoArena.Get(total)
	defer basisArena.Put(pts)
	defer endoArena.Put(endo)
	pos := 0
	for i, off := range c.pendOffs {
		n := c.pendLens[i]
		if err := c.srs.readBasisEndoRange(ctx, c.numVars, off, pts[pos:pos+n], endo[pos:pos+n], workers); err != nil {
			return err
		}
		pos += n
	}
	part, err := curve.MSMEndoWorkersCtx(ctx, pts[:total], endo[:total], c.pendScalars, workers)
	if err != nil {
		return err
	}
	c.acc.AddAssign(&part)
	c.pendScalars = c.pendScalars[:0]
	c.pendOffs = c.pendOffs[:0]
	c.pendLens = c.pendLens[:0]
	return nil
}

// Finish flushes the pending gather and returns the commitment. It errors
// if the fed segments do not cover the table exactly.
func (c *StreamCommitter) Finish(ctx context.Context, workers int) (Commitment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fed != c.size {
		return Commitment{}, fmt.Errorf("pcs: stream fed %d of %d entries", c.fed, c.size)
	}
	if err := c.flushLocked(ctx, workers); err != nil {
		return Commitment{}, err
	}
	var aff curve.G1Affine
	aff.FromJacobian(&c.acc)
	return Commitment{Point: aff, NumVars: c.numVars}, nil
}
