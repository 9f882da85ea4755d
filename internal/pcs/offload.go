package pcs

import (
	"context"
	"encoding/binary"
	"fmt"

	"zkphire/internal/curve"
	"zkphire/internal/faultinject"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/parallel"
	"zkphire/internal/spill"
)

// The offloaded-SRS backing layer. Offload decides once, by size, where each
// commitment-basis level lives:
//
//   - a level whose points and φ-table fit half the budget stays resident
//     and is used exactly as in core (Levels[k] plus the shared EndoPoints
//     cache);
//   - every larger level moves to an internal/spill store and never
//     materializes again: the MSM paths stream fixed-size basis chunks
//     through arena scratch, computing each chunk's GLV φ-table on the fly
//     (curve.EndoPointsInto).
//
// Levels are powers of two, so the resident levels together stay under the
// budget: their sizes sum to less than twice the largest, which is at most
// half the budget.
//
// Group addition is exact and associative and FromJacobian is canonical, so
// every chunked MSM below produces the commitment byte-identical to the
// in-core path regardless of chunk geometry or worker budget.

// pointBytes is the on-disk size of one basis point: X and Y limbs
// little-endian plus an infinity flag.
const pointBytes = 2*fp.Limbs*8 + 1

// pointMemBytes/endoMemBytes approximate the in-RAM cost per resident basis
// point (G1Affine with padding, and its φ-table x-coordinate).
const (
	pointMemBytes = 104
	endoMemBytes  = 48
)

// minBudget is the floor Offload clamps budgets to. At the floor level 12
// (~0.6 MB) stays resident and level 13 streams.
const minBudget = 2 << 20

type backing struct {
	store      *spill.Store
	chunkElems int
}

func levelMemBytes(k int) int64 {
	return int64(pointMemBytes+endoMemBytes) << uint(k)
}

// Offload keeps every commitment-basis level whose in-RAM cost is at most
// half of budget bytes resident, spills every larger level into a spill
// store rooted at dir (empty = a private temp directory), and frees the
// spilled levels' in-RAM copies, including their cached φ-tables. All
// commit/open paths work unchanged and produce byte-identical results;
// spilled levels stream through chunkElemsFor(budget)-point chunks.
//
// Offload is idempotent (the first call's parameters win) and must not run
// concurrently with proofs on this SRS: callers offload before proving.
// The backing files live until CloseBacking or process exit.
func (s *SRS) Offload(dir string, budget int64) error {
	if s.back != nil {
		return nil
	}
	if budget < minBudget {
		budget = minBudget
	}
	store, err := spill.NewStore(dir)
	if err != nil {
		return err
	}
	b := &backing{store: store, chunkElems: chunkElemsFor(budget)}
	spilled := func(k int) bool { return levelMemBytes(k) > budget/2 }
	for k := range s.Levels {
		if !spilled(k) {
			continue
		}
		if err := b.writeLevel(k, s.Levels[k]); err != nil {
			store.Close()
			return err
		}
	}
	// Point of no return: drop the spilled levels and their φ-tables.
	s.endoMu.Lock()
	for k := range s.Levels {
		if spilled(k) {
			s.Levels[k] = nil
			if s.endo != nil {
				s.endo[k] = nil
			}
		}
	}
	s.endoMu.Unlock()
	s.back = b
	return nil
}

// CloseBacking removes the backing store. The SRS can no longer serve
// offloaded levels afterwards — only for teardown in tests and short-lived
// processes that own the SRS outright.
func (s *SRS) CloseBacking() error {
	if s.back == nil {
		return nil
	}
	b := s.back
	s.back = nil
	return b.store.Close()
}

// chunkElemsFor sizes the streamed-MSM basis chunk so one chunk's points,
// φ-table, and staging bytes stay well inside the budget: an eighth of the
// budget, clamped to [2^12, 2^20] points.
func chunkElemsFor(budget int64) int {
	n := budget / 8 / (pointMemBytes + endoMemBytes)
	if n < 1<<12 {
		n = 1 << 12
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return int(n)
}

func levelKey(k int) string { return fmt.Sprintf("srs/L%02d", k) }

// writeLevel spills one level's points.
func (b *backing) writeLevel(k int, pts []curve.G1Affine) error {
	w, err := b.store.Create(nil, levelKey(k))
	if err != nil {
		return err
	}
	const stagePts = 4096
	stage := make([]byte, 0, stagePts*pointBytes)
	for off := 0; off < len(pts); off += stagePts {
		end := off + stagePts
		if end > len(pts) {
			end = len(pts)
		}
		stage = stage[:0]
		for i := off; i < end; i++ {
			stage = appendPoint(stage, &pts[i])
		}
		if _, err := w.Write(stage); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

func appendPoint(dst []byte, p *curve.G1Affine) []byte {
	for l := 0; l < fp.Limbs; l++ {
		dst = binary.LittleEndian.AppendUint64(dst, p.X[l])
	}
	for l := 0; l < fp.Limbs; l++ {
		dst = binary.LittleEndian.AppendUint64(dst, p.Y[l])
	}
	if p.Infinity {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodePoint(src []byte, p *curve.G1Affine) {
	for l := 0; l < fp.Limbs; l++ {
		p.X[l] = binary.LittleEndian.Uint64(src[l*8:])
	}
	for l := 0; l < fp.Limbs; l++ {
		p.Y[l] = binary.LittleEndian.Uint64(src[(fp.Limbs+l)*8:])
	}
	p.Infinity = src[2*fp.Limbs*8] != 0
}

// Arena pools for the streamed MSM's per-call scratch: the raw bytes, the
// decoded points and the φ-table of one basis chunk, reused across chunks
// and calls.
var (
	stageArena parallel.Arena[byte]
	basisArena parallel.Arena[curve.G1Affine]
	endoArena  parallel.Arena[fp.Element]
)

// msmRangeCtx computes Σ_i scalars[i] · Levels[k][off+i], the one basis
// path of every commit and opening MSM. A range whose basis arrives in one
// piece (a resident level) is one MSM; a streamed one feeds one StreamMSM
// chunk by chunk, its window sized by curve.CountDense.
func (s *SRS) msmRangeCtx(ctx context.Context, k, off int, scalars []ff.Element, workers int) (res curve.G1Jac, err error) {
	var m *curve.StreamMSM
	err = s.basisChunks(ctx, k, off, len(scalars), workers, func(lo int, pts []curve.G1Affine, endo []fp.Element) (err error) {
		if len(pts) == len(scalars) {
			res, err = curve.MSMEndoWorkersCtx(ctx, pts, endo, scalars, workers)
			return err
		}
		if m == nil {
			m = curve.NewStreamMSM(curve.CountDense(scalars, workers), workers)
		}
		return m.Add(ctx, pts, endo, scalars[lo:lo+len(pts)])
	})
	if m != nil && err == nil {
		res = m.Sum()
	}
	return res, err
}

// basisChunks hands level k's basis points [off, off+n) and their φ-table
// to add, lo being each piece's offset within the range: a resident level's
// segment in one call, straight from RAM, a spilled level's chunk by chunk
// from the spill store. It is the one place that tells the two apart.
func (s *SRS) basisChunks(ctx context.Context, k, off, n, workers int, add func(lo int, pts []curve.G1Affine, endo []fp.Element) error) error {
	if pts := s.Levels[k]; pts != nil {
		endo := s.EndoPoints(k, workers)
		return add(0, pts[off:off+n], endo[off:off+n])
	}
	if s.back == nil {
		return fmt.Errorf("pcs: level %d is neither resident nor backed", k)
	}
	return s.back.stream(ctx, k, off, n, workers, add)
}

// stream hands level k's basis points [off, off+n) to add chunk by chunk,
// reading the spill file front to back once: per chunk, one read, a
// parallel decode and the chunk's φ-table.
func (b *backing) stream(ctx context.Context, k, off, n, workers int, add func(lo int, pts []curve.G1Affine, endo []fp.Element) error) error {
	r, err := b.store.OpenReader(ctx, levelKey(k), int64(off)*pointBytes)
	if err != nil {
		return fmt.Errorf("pcs: offload read level %d: %w", k, err)
	}
	defer r.Close()
	chunk := min(b.chunkElems, n)
	stage := stageArena.Get(chunk * pointBytes)
	pts := basisArena.Get(chunk)
	endo := endoArena.Get(chunk)
	defer stageArena.Put(stage)
	defer basisArena.Put(pts)
	defer endoArena.Put(endo)
	for lo := 0; lo < n; lo += chunk {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := faultinject.Hit("pcs.offload.read"); err != nil {
			return fmt.Errorf("pcs: offload read level %d: %w", k, err)
		}
		cn := min(chunk, n-lo)
		buf := stage[:cn*pointBytes]
		if err := r.ReadFull(ctx, buf); err != nil {
			return fmt.Errorf("pcs: offload read level %d: %w", k, err)
		}
		parallel.For(workers, cn, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				decodePoint(buf[i*pointBytes:], &pts[i])
			}
		})
		curve.EndoPointsInto(endo[:cn], pts[:cn], workers)
		if err := add(lo, pts[:cn], endo[:cn]); err != nil {
			return err
		}
	}
	return nil
}
