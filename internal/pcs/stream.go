package pcs

import (
	"context"
	"fmt"
	"sync"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
)

// StreamCommitter accumulates a commitment to a table that is produced in
// segments — the permutation product tree, whose leaves are final long
// before the upper levels exist. Feed adds a finished segment into one
// curve.StreamMSM sized for the whole table; Finish reduces it. Because
// group addition is exact and associative and FromJacobian is canonical,
// the final commitment is byte-identical to CommitWorkers over the
// assembled table, regardless of segmentation or budget.
//
// Basis access routes through the SRS: a resident level's segment is added
// straight from RAM, a spilled level's streams from the spill store one
// chunk at a time, so the committer never holds more than one chunk of
// basis points.
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
	msm *curve.StreamMSM // created by the first Feed, on its budget
	fed int
	err error // the first Feed failure; Feed and Finish return it from then on
}

// CommitStream starts a streamed commitment to a numVars-variable table.
func (s *SRS) CommitStream(numVars int) (*StreamCommitter, error) {
	if numVars > s.MaxVars {
		return nil, fmt.Errorf("pcs: table has %d vars, SRS supports %d", numVars, s.MaxVars)
	}
	return &StreamCommitter{srs: s, numVars: numVars, size: 1 << uint(numVars)}, nil
}

// Feed absorbs vals as the table segment [offset, offset+len(vals)). Every
// index must be fed exactly once before Finish; segments may arrive in any
// order. The segment's bucket additions run on the worker budget of the
// first Feed (polling ctx); vals is read during the call only. A failed
// Feed may have added part of its segment, so its error sticks: every later
// Feed and Finish return it.
func (c *StreamCommitter) Feed(ctx context.Context, offset int, vals []ff.Element, workers int) error {
	if offset < 0 || offset+len(vals) > c.size {
		return fmt.Errorf("pcs: stream segment [%d,%d) outside table of size %d", offset, offset+len(vals), c.size)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.msm == nil {
		c.msm = curve.NewStreamMSM(c.size, workers)
	}
	c.fed += len(vals)
	c.err = c.srs.basisChunks(ctx, c.numVars, offset, len(vals), workers, func(lo int, pts []curve.G1Affine, endo []fp.Element) error {
		return c.msm.Add(ctx, pts, endo, vals[lo:lo+len(pts)])
	})
	return c.err
}

// Finish returns the commitment. It errors if the fed segments do not
// cover the table exactly. The window reductions run on the first Feed's
// budget; ctx and workers are kept for the API's sake.
func (c *StreamCommitter) Finish(ctx context.Context, workers int) (Commitment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return Commitment{}, c.err
	}
	if c.fed != c.size {
		return Commitment{}, fmt.Errorf("pcs: stream fed %d of %d entries", c.fed, c.size)
	}
	sum := c.msm.Sum()
	var aff curve.G1Affine
	aff.FromJacobian(&sum)
	return Commitment{Point: aff, NumVars: c.numVars}, nil
}
