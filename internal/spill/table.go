package spill

import (
	"context"
	"encoding/binary"
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// ElemBytes is the on-disk size of one scalar: the four 64-bit limbs,
// little-endian, in the internal Montgomery representation. Spilled data
// never leaves the process (the store is a private temp directory), so the
// encoding round-trips the in-RAM form verbatim instead of paying a
// to/from-Montgomery conversion per element.
const ElemBytes = ff.Limbs * 8

// stageElems is the number of elements encoded per staging buffer: exactly
// one page's worth, so spilling a table keeps one page of bytes resident,
// not a second copy of the table.
const stageElems = DefaultPageSize / ElemBytes

// PutElements spills vals under key.
func PutElements(ctx context.Context, s *Store, key string, vals []ff.Element) error {
	w, err := s.Create(ctx, key)
	if err != nil {
		return err
	}
	stage := make([]byte, 0, stageElems*ElemBytes)
	for off := 0; off < len(vals); off += stageElems {
		end := off + stageElems
		if end > len(vals) {
			end = len(vals)
		}
		stage = stage[:0]
		for i := off; i < end; i++ {
			for l := 0; l < ff.Limbs; l++ {
				stage = binary.LittleEndian.AppendUint64(stage, vals[i][l])
			}
		}
		if _, err := w.Write(stage); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// ElementCount returns the number of elements stored under key.
func (s *Store) ElementCount(key string) (int, error) {
	n, err := s.Size(key)
	if err != nil {
		return 0, err
	}
	if n%ElemBytes != 0 {
		return 0, fmt.Errorf("%w: %s: %d bytes is not a whole element count", ErrCorrupt, key, n)
	}
	return int(n / ElemBytes), nil
}

// ReadElementsRange decodes elements [off, off+len(dst)) of the object into
// dst through one Reader: one open, and each covering page read once.
func ReadElementsRange(ctx context.Context, s *Store, key string, off int, dst []ff.Element) error {
	r, err := s.OpenReader(ctx, key, int64(off)*ElemBytes)
	if err != nil {
		return err
	}
	defer r.Close()
	stage := make([]byte, min(len(dst), stageElems)*ElemBytes)
	for len(dst) > 0 {
		n := min(len(dst), stageElems)
		stage := stage[:n*ElemBytes]
		if err := r.ReadFull(ctx, stage); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			for l := 0; l < ff.Limbs; l++ {
				dst[i][l] = binary.LittleEndian.Uint64(stage[(i*ff.Limbs+l)*8:])
			}
		}
		dst = dst[n:]
	}
	return nil
}

// Table is a handle to a spilled mle.Table, loaded back into fresh memory
// on demand. No prover path uses it; the benchmark's spill round-trip
// probe does.
type Table struct {
	s       *Store
	key     string
	numVars int
}

// PutTable spills t under key and returns its handle. t itself is not
// mutated; the caller drops its reference to release the RAM.
func PutTable(ctx context.Context, s *Store, key string, t *mle.Table) (*Table, error) {
	if err := PutElements(ctx, s, key, t.Evals); err != nil {
		return nil, err
	}
	return &Table{s: s, key: key, numVars: t.NumVars}, nil
}

// NumVars returns the spilled table's variable count.
func (h *Table) NumVars() int { return h.numVars }

// Load reads the table back into fresh memory.
func (h *Table) Load(ctx context.Context) (*mle.Table, error) {
	count, err := h.s.ElementCount(h.key)
	if err != nil {
		return nil, err
	}
	if count != 1<<uint(h.numVars) {
		return nil, fmt.Errorf("%w: %s: %d elements for a %d-var table", ErrCorrupt, h.key, count, h.numVars)
	}
	evals := make([]ff.Element, count)
	if err := ReadElementsRange(ctx, h.s, h.key, 0, evals); err != nil {
		return nil, err
	}
	return mle.FromEvals(evals), nil
}

// Release deletes the spilled object; the handle is dead afterwards.
func (h *Table) Release() error { return h.s.Delete(h.key) }
