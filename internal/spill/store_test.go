package spill

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	s := newTestStore(t)
	sizes := []int{0, 1, 100, DefaultPageSize - 1, DefaultPageSize, DefaultPageSize + 1, 3*DefaultPageSize + 12345}
	for _, n := range sizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		key := "obj"
		if err := s.Put(context.Background(), key, data); err != nil {
			t.Fatalf("Put(%d bytes): %v", n, err)
		}
		got, err := s.ReadAll(context.Background(), key)
		if err != nil {
			t.Fatalf("ReadAll(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch at %d bytes", n)
		}
	}
}

func TestReadAtRanges(t *testing.T) {
	s := newTestStore(t)
	data := make([]byte, 2*DefaultPageSize+777)
	for i := range data {
		data[i] = byte(i>>8 ^ i)
	}
	if err := s.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{0, 10}, {DefaultPageSize - 5, 10}, {DefaultPageSize, DefaultPageSize}, {len(data) - 3, 3}, {0, len(data)}}
	for _, r := range ranges {
		dst := make([]byte, r[1])
		if err := s.ReadAt(context.Background(), "r", int64(r[0]), dst); err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", r[0], r[1], err)
		}
		if !bytes.Equal(dst, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("ReadAt(%d,%d) mismatch", r[0], r[1])
		}
	}
	// Out-of-range reads error, never panic.
	if err := s.ReadAt(context.Background(), "r", int64(len(data)-1), make([]byte, 2)); err == nil {
		t.Fatal("out-of-range ReadAt succeeded")
	}
	if err := s.ReadAt(context.Background(), "r", -1, make([]byte, 1)); err == nil {
		t.Fatal("negative-offset ReadAt succeeded")
	}
	if err := s.ReadAt(context.Background(), "missing", 0, make([]byte, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

// corruptAt flips one bit of the backing file at the given offset.
func corruptAt(t *testing.T, s *Store, key string, off int64) {
	t.Helper()
	p := s.path(key)
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlipDetected(t *testing.T) {
	data := make([]byte, DefaultPageSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	// Flip one bit in: the magic, the header length, a page header, page-1
	// payload, page-2 payload. Every case must error (wrapping ErrCorrupt)
	// and never panic.
	offsets := []int64{0, 16, fileHeaderSize + 2, fileHeaderSize + pageHeaderSize + 512, fileHeaderSize + pageHeaderSize + int64(DefaultPageSize) + pageHeaderSize + 5}
	for _, off := range offsets {
		s := newTestStore(t)
		if err := s.Put(context.Background(), "x", data); err != nil {
			t.Fatal(err)
		}
		corruptAt(t, s, "x", off)
		_, err := s.ReadAll(context.Background(), "x")
		if err == nil {
			t.Fatalf("bit flip at %d read back clean", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	data := make([]byte, 2*DefaultPageSize)
	s := newTestStore(t)
	if err := s.Put(context.Background(), "x", data); err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-second-page: the full read and any read touching the
	// second page must fail; the first page is still intact and readable.
	if err := os.Truncate(s.path("x"), fileHeaderSize+2*pageHeaderSize+int64(DefaultPageSize)+100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAll(context.Background(), "x"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated read: %v", err)
	}
	if err := s.ReadAt(context.Background(), "x", int64(DefaultPageSize)+10, make([]byte, 32)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated range read: %v", err)
	}
	if err := s.ReadAt(context.Background(), "x", 0, make([]byte, 64)); err != nil {
		t.Fatalf("intact first page unreadable: %v", err)
	}
}

func TestInterruptedWriteUnreadable(t *testing.T) {
	// A writer that never Closes leaves the header length at the sentinel;
	// simulate the crash by re-registering the key and reading.
	s := newTestStore(t)
	w, err := s.Create(context.Background(), "crash")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, DefaultPageSize)); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Force the object into the registry as if complete.
	s.mu.Lock()
	s.objs["crash"] = int64(DefaultPageSize)
	s.mu.Unlock()
	if _, err := s.ReadAll(context.Background(), "crash"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sentinel-length object read back: %v", err)
	}
	w.Abort()
	s.mu.Lock()
	delete(s.objs, "crash")
	s.mu.Unlock()
}

func TestCancelMidSpillLeaksNothing(t *testing.T) {
	s := newTestStore(t)
	if err := s.Put(context.Background(), "keep", []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w, err := s.Create(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, DefaultPageSize)); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The next page boundary observes the cancellation...
	if _, err := w.Write(make([]byte, 2*DefaultPageSize)); !errors.Is(err, context.Canceled) {
		t.Fatalf("write after cancel: %v", err)
	}
	// ...and the partial file is gone; Close reports the error, idempotently.
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("close after cancel: %v", err)
	}
	if n, err := s.FileCount(); err != nil || n != 1 {
		t.Fatalf("FileCount after cancelled spill = %d (err %v), want 1", n, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after cancelled spill = %d, want 1", s.Len())
	}
	// A pre-cancelled Put leaks nothing either.
	if err := s.Put(ctx, "never", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Put: %v", err)
	}
	if n, _ := s.FileCount(); n != 1 {
		t.Fatalf("FileCount after pre-cancelled Put = %d, want 1", n)
	}
}

func TestElementsRoundTrip(t *testing.T) {
	s := newTestStore(t)
	rng := ff.NewRand(7)
	vals := rng.Elements(1<<12 + 37)
	if err := PutElements(context.Background(), s, "e", vals); err != nil {
		t.Fatal(err)
	}
	n, err := s.ElementCount("e")
	if err != nil || n != len(vals) {
		t.Fatalf("ElementCount = %d (err %v), want %d", n, err, len(vals))
	}
	got := make([]ff.Element, len(vals))
	if err := ReadElementsRange(context.Background(), s, "e", 0, got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !got[i].Equal(&vals[i]) {
			t.Fatalf("element %d mismatch", i)
		}
	}
	// Sub-range crossing the staging boundary.
	part := make([]ff.Element, 1000)
	off := len(vals) - 1200
	if err := ReadElementsRange(context.Background(), s, "e", off, part); err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if !part[i].Equal(&vals[off+i]) {
			t.Fatalf("range element %d mismatch", i)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	s := newTestStore(t)
	rng := ff.NewRand(11)
	tab := mle.FromEvals(rng.Elements(1 << 10))
	h, err := PutTable(context.Background(), s, "t", tab)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVars() != 10 {
		t.Fatalf("NumVars = %d", h.NumVars())
	}
	got, err := h.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Evals {
		if !got.Evals[i].Equal(&tab.Evals[i]) {
			t.Fatalf("table entry %d mismatch", i)
		}
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Load(context.Background()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load after release: %v", err)
	}
}

func TestCloseRemovesEverything(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	dir := s.dir
	if err := s.Put(context.Background(), "a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("temp dir survives Close: %v", err)
	}
	if err := s.Put(context.Background(), "b", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// FuzzChunkRoundTrip fuzzes the page framing: arbitrary payloads round-trip
// exactly, arbitrary sub-ranges match, and a bit flip at an arbitrary
// offset is either harmless (file metadata slack) or a detected error —
// never a wrong payload, never a panic.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), uint32(0), uint32(5), uint32(3))
	f.Add(make([]byte, DefaultPageSize+3), uint32(DefaultPageSize-1), uint32(4), uint32(fileHeaderSize+2))
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, off, n, flip uint32) {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Put(context.Background(), "f", data); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := s.ReadAll(context.Background(), "f")
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		ro, rn := int(off), int(n)
		if ro <= len(data) && rn <= len(data)-ro {
			dst := make([]byte, rn)
			if err := s.ReadAt(context.Background(), "f", int64(ro), dst); err != nil {
				t.Fatalf("ReadAt(%d,%d): %v", ro, rn, err)
			}
			if !bytes.Equal(dst, data[ro:ro+rn]) {
				t.Fatalf("range [%d,%d) mismatch", ro, ro+rn)
			}
		}
		// Flip one bit somewhere in the file; the read must either fail or
		// still return the exact payload (flips in unused header bytes).
		fi, err := os.Stat(s.path("f"))
		if err != nil {
			t.Fatal(err)
		}
		fOff := int64(flip) % fi.Size()
		corruptFuzz(t, s.path("f"), fOff)
		got2, err := s.ReadAll(context.Background(), "f")
		if err == nil && !bytes.Equal(got2, data) {
			t.Fatalf("bit flip at %d returned wrong data without error", fOff)
		}
	})
}

func corruptFuzz(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
