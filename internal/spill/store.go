// Package spill is a small tmpfile-backed chunk store for out-of-core prover
// state: the offloaded SRS commitment-basis levels, which internal/pcs
// streams back chunk by chunk.
//
// Every object is one file of fixed-size checksummed pages:
//
//	file   := header page*
//	header := magic[8] pageSize[u32] reserved[u32] totalLen[u64]
//	page   := payloadLen[u32] reserved[u32] crc64[u64] payload[payloadLen]
//
// All integers are little-endian; the checksum is CRC-64/ECMA over the
// payload. Every page except the last carries exactly pageSize payload
// bytes, so a byte range maps to its covering pages arithmetically and a
// read never touches more of the file than the range needs. Reads go
// through a Reader (ReadAt is a one-shot one), which verifies each page it
// loads once. The header's totalLen is patched in when a write completes —
// an interrupted write leaves the sentinel ^0, so a half-written object can
// never be read back as valid data. Corrupt, truncated, or torn objects
// surface as errors (wrapping ErrCorrupt), never panics.
//
// Writes poll ctx between pages and remove the partial file on error or
// cancellation, so an aborted spill leaks nothing.
package spill

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"zkphire/internal/faultinject"
	"zkphire/internal/parallel"
)

const (
	// DefaultPageSize is the payload size of every page but the last.
	// 1 MiB amortizes the per-page checksum and syscall without forcing
	// reads to fault in much more than a chunk needs.
	DefaultPageSize = 1 << 20

	fileHeaderSize = 8 + 4 + 4 + 8
	pageHeaderSize = 4 + 4 + 8

	// lenSentinel marks an object whose write never completed.
	lenSentinel = ^uint64(0)
)

var fileMagic = [8]byte{'Z', 'K', 'S', 'P', 'I', 'L', 'L', '1'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt reports a page that failed its checksum, a truncated file, or
// a header that does not parse. Errors returned by reads wrap it.
var ErrCorrupt = errors.New("spill: corrupt object")

// ErrNotFound reports a key with no stored object.
var ErrNotFound = errors.New("spill: object not found")

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("spill: store closed")

// Store is a directory of spilled objects, safe for concurrent use.
// Objects are write-once: Put/Create a key, read it any number of times,
// Delete it when the pass that needed it is over.
type Store struct {
	dir      string
	ownDir   bool
	pageSize int

	mu     sync.Mutex
	objs   map[string]int64 // key -> payload length
	closed bool
}

// NewStore opens a store rooted at dir, creating it if needed. An empty dir
// creates a private temporary directory that Close removes.
func NewStore(dir string) (*Store, error) {
	own := false
	if dir == "" {
		d, err := os.MkdirTemp("", "zkspill-")
		if err != nil {
			return nil, fmt.Errorf("spill: %w", err)
		}
		dir, own = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &Store{dir: dir, ownDir: own, pageSize: DefaultPageSize, objs: make(map[string]int64)}, nil
}

// enter checks liveness and ctx.
func (s *Store) enter(ctx context.Context) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// path maps a key to its file. The readable prefix aids debugging; the FNV
// suffix makes distinct keys collision-free regardless of sanitization.
func (s *Store) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	san := make([]byte, 0, len(key))
	for i := 0; i < len(key) && i < 40; i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			san = append(san, c)
		default:
			san = append(san, '_')
		}
	}
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x.zks", san, h.Sum64()))
}

// Writer streams one object into the store page by page. Write buffers
// into page-sized frames; Close seals the object (patching the header's
// totalLen) and registers it. Any error — including ctx cancellation
// between pages — poisons the writer: Close then removes the partial file
// and returns the error, so no failed spill leaves a file behind.
type Writer struct {
	s     *Store
	ctx   context.Context
	key   string
	f     *os.File
	buf   []byte
	total int64
	err   error
	done  bool
}

// Create starts writing the object for key, replacing any existing one.
func (s *Store) Create(ctx context.Context, key string) (*Writer, error) {
	if err := s.enter(ctx); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path(key), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	w := &Writer{s: s, ctx: ctx, key: key, f: f, buf: make([]byte, 0, s.pageSize)}
	var hdr [fileHeaderSize]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(s.pageSize))
	binary.LittleEndian.PutUint64(hdr[16:24], lenSentinel)
	if _, err := f.Write(hdr[:]); err != nil {
		w.fail(err)
		return nil, w.err
	}
	return w, nil
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("spill: %s: %w", w.key, err)
	}
	w.cleanup(true)
}

func (w *Writer) cleanup(remove bool) {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	if remove {
		os.Remove(w.f.Name())
	}
}

// Write appends p to the object (io.Writer).
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.done {
		return 0, ErrClosed
	}
	n := len(p)
	for len(p) > 0 {
		room := w.s.pageSize - len(w.buf)
		take := len(p)
		if take > room {
			take = room
		}
		w.buf = append(w.buf, p[:take]...)
		p = p[take:]
		if len(w.buf) == w.s.pageSize {
			if err := w.flushPage(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

// flushPage writes the buffered page, polling ctx first so a cancellation
// mid-spill lands at the next page boundary.
func (w *Writer) flushPage() error {
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			w.fail(err)
			return w.err
		}
	}
	if err := faultinject.Hit("spill.write"); err != nil {
		w.fail(err)
		return w.err
	}
	var hdr [pageHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(w.buf)))
	binary.LittleEndian.PutUint64(hdr[8:16], crc64.Checksum(w.buf, crcTable))
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.fail(err)
		return w.err
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.fail(err)
		return w.err
	}
	w.total += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Abort discards the object, removing the partial file.
func (w *Writer) Abort() {
	if w.err == nil {
		w.err = fmt.Errorf("spill: %s: write aborted", w.key)
	}
	w.cleanup(true)
}

// Close seals the object. If any Write failed (or ctx was cancelled), the
// partial file has already been removed and Close reports that error.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return ErrClosed
	}
	if len(w.buf) > 0 {
		if err := w.flushPage(); err != nil {
			return err
		}
	}
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], uint64(w.total))
	if _, err := w.f.WriteAt(lenb[:], 16); err != nil {
		w.fail(err)
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.done = true
		os.Remove(w.f.Name())
		w.err = fmt.Errorf("spill: %s: %w", w.key, err)
		return w.err
	}
	w.done = true
	w.s.mu.Lock()
	if !w.s.closed {
		w.s.objs[w.key] = w.total
	}
	w.s.mu.Unlock()
	return nil
}

// Put stores data under key in one call.
func (s *Store) Put(ctx context.Context, key string, data []byte) error {
	w, err := s.Create(ctx, key)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// Size returns the payload length of the object stored under key.
func (s *Store) Size(key string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n, ok := s.objs[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return n, nil
}

// ReadAll returns the whole object stored under key.
func (s *Store) ReadAll(ctx context.Context, key string) ([]byte, error) {
	n, err := s.Size(key)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, n)
	if err := s.ReadAt(ctx, key, 0, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ReadAt fills dst with the object's payload bytes [off, off+len(dst)),
// verifying the checksum of every covering page. It reads only those pages.
func (s *Store) ReadAt(ctx context.Context, key string, off int64, dst []byte) error {
	r, err := s.OpenReader(ctx, key, off)
	if err != nil {
		return err
	}
	defer r.Close()
	return r.ReadFull(ctx, dst)
}

// Reader reads one object front to back from a start offset: one open and
// one header check, one page frame reused for every page, and every page
// read and checksummed once however the reads straddle it. The frame comes
// from an arena and Close returns it, so a steady stream of Readers
// allocates no frames. A Reader is not safe for concurrent use; after an
// error only Close is meaningful.
type Reader struct {
	key   string
	f     *os.File
	total int64 // payload length
	off   int64 // next payload byte to deliver
	ps    int64
	hdr   [pageHeaderSize]byte // the loaded page's header
	frame []byte               // page payload, reused for every page
	page  int64                // index of the page whose verified payload is in frame, or −1
	pay   []byte               // that payload
}

// frameArena recycles Reader page frames.
var frameArena parallel.Arena[byte]

// OpenReader opens the object stored under key for sequential reads
// starting at payload byte off.
func (s *Store) OpenReader(ctx context.Context, key string, off int64) (*Reader, error) {
	if err := s.enter(ctx); err != nil {
		return nil, err
	}
	total, err := s.Size(key)
	if err != nil {
		return nil, err
	}
	if off < 0 || off > total {
		return nil, fmt.Errorf("spill: %s: offset %d outside object of %d bytes", key, off, total)
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("spill: %s: %w", key, err)
	}
	if err := s.checkHeader(f, key, total); err != nil {
		f.Close()
		return nil, err
	}
	ps := int64(s.pageSize)
	r := &Reader{key: key, f: f, total: total, off: off, ps: ps, page: -1}
	r.frame = frameArena.Get(int(min(ps, total)))
	return r, nil
}

// ReadFull fills dst with the next len(dst) payload bytes, polling ctx
// before each page it loads.
func (r *Reader) ReadFull(ctx context.Context, dst []byte) error {
	if end := r.off + int64(len(dst)); end > r.total {
		return fmt.Errorf("spill: %s: range [%d,%d) outside object of %d bytes", r.key, r.off, end, r.total)
	}
	for len(dst) > 0 {
		if idx := r.off / r.ps; idx != r.page {
			if err := r.loadPage(ctx, idx); err != nil {
				return err
			}
		}
		n := copy(dst, r.pay[r.off-r.page*r.ps:])
		dst = dst[n:]
		r.off += int64(n)
	}
	return nil
}

// loadPage reads page idx into the frame and verifies its length and
// checksum.
func (r *Reader) loadPage(ctx context.Context, idx int64) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := faultinject.Hit("spill.read"); err != nil {
		return fmt.Errorf("spill: %s: %w", r.key, err)
	}
	r.page = -1
	payLen := min(r.ps, r.total-idx*r.ps)
	fileOff := int64(fileHeaderSize) + idx*(pageHeaderSize+r.ps)
	pay := r.frame[:payLen]
	if _, err := r.f.ReadAt(r.hdr[:], fileOff); err != nil {
		return fmt.Errorf("%w: %s: page %d: %v", ErrCorrupt, r.key, idx, err)
	}
	if _, err := r.f.ReadAt(pay, fileOff+pageHeaderSize); err != nil {
		return fmt.Errorf("%w: %s: page %d: %v", ErrCorrupt, r.key, idx, err)
	}
	if gotLen := binary.LittleEndian.Uint32(r.hdr[0:4]); int64(gotLen) != payLen {
		return fmt.Errorf("%w: %s: page %d: length %d, want %d", ErrCorrupt, r.key, idx, gotLen, payLen)
	}
	if crc64.Checksum(pay, crcTable) != binary.LittleEndian.Uint64(r.hdr[8:16]) {
		return fmt.Errorf("%w: %s: page %d: checksum mismatch", ErrCorrupt, r.key, idx)
	}
	r.page, r.pay = idx, pay
	return nil
}

// Close releases the reader's file and returns its frame to the arena.
func (r *Reader) Close() error {
	frameArena.Put(r.frame)
	r.frame, r.pay, r.page = nil, nil, -1
	return r.f.Close()
}

// checkHeader validates the file header against the registered length.
func (s *Store) checkHeader(f *os.File, key string, total int64) error {
	var hdr [fileHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("%w: %s: header: %v", ErrCorrupt, key, err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, key)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:12]); int(ps) != s.pageSize {
		return fmt.Errorf("%w: %s: page size %d, store uses %d", ErrCorrupt, key, ps, s.pageSize)
	}
	if got := binary.LittleEndian.Uint64(hdr[16:24]); got == lenSentinel || int64(got) != total {
		return fmt.Errorf("%w: %s: header length %d, want %d", ErrCorrupt, key, got, total)
	}
	return nil
}

// Delete removes the object stored under key (a no-op for unknown keys).
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.objs[key]; !ok {
		return nil
	}
	delete(s.objs, key)
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("spill: %s: %w", key, err)
	}
	return nil
}

// Len returns the number of live objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

// FileCount returns the number of files actually present in the backing
// directory — the leak tests compare it against Len after faults.
func (s *Store) FileCount() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	return len(ents), nil
}

// Close deletes every object and, for store-owned temp directories, the
// directory itself. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	keys := make([]string, 0, len(s.objs))
	for k := range s.objs {
		keys = append(keys, k)
	}
	s.objs = nil
	s.mu.Unlock()
	var firstErr error
	for _, k := range keys {
		if err := os.Remove(s.path(k)); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	if s.ownDir {
		if err := os.Remove(s.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
