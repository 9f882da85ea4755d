package spill

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// smallPageStore is a store with 64-byte pages, so that a few hundred
// bytes span many pages and a short last one.
func smallPageStore(t *testing.T, data []byte) *Store {
	t.Helper()
	s := newTestStore(t)
	s.pageSize = 64
	if err := s.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	return s
}

func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 ^ i>>3)
	}
	return data
}

// pageOffset is the file offset of page idx's header.
func pageOffset(s *Store, idx int) int64 {
	return fileHeaderSize + int64(idx)*(pageHeaderSize+int64(s.pageSize))
}

// TestReaderSequential starts mid-page, reads in lengths that straddle
// pages, and ends on the short last page (1000 = 15·64 + 40).
func TestReaderSequential(t *testing.T) {
	data := pattern(1000)
	s := smallPageStore(t, data)
	const start = 37
	r, err := s.OpenReader(context.Background(), "r", start)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	off := start
	for i := 0; off < len(data); i++ {
		n := min([]int{5, 64, 100, 1, 27}[i%5], len(data)-off)
		dst := make([]byte, n)
		if err := r.ReadFull(context.Background(), dst); err != nil {
			t.Fatalf("ReadFull at %d: %v", off, err)
		}
		if !bytes.Equal(dst, data[off:off+n]) {
			t.Fatalf("ReadFull at %d: wrong bytes", off)
		}
		off += n
	}
	if err := r.ReadFull(context.Background(), make([]byte, 1)); err == nil {
		t.Fatal("ReadFull past the end succeeded")
	}
	if _, err := s.OpenReader(context.Background(), "r", int64(len(data))+1); err == nil {
		t.Fatal("OpenReader past the end succeeded")
	}
}

// TestReaderVerifiesEachPageOnce: a page is checked when it is loaded and
// served from the frame afterwards, so corrupting a page the reader already
// holds goes unseen, and corrupting one it has yet to reach is caught.
func TestReaderVerifiesEachPageOnce(t *testing.T) {
	data := pattern(1000)
	s := smallPageStore(t, data)
	r, err := s.OpenReader(context.Background(), "r", 2*64)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]byte, 10)
	if err := r.ReadFull(context.Background(), dst); err != nil {
		t.Fatal(err)
	}
	corruptAt(t, s, "r", pageOffset(s, 2)+pageHeaderSize+40)
	corruptAt(t, s, "r", pageOffset(s, 4)+pageHeaderSize+1)
	rest := make([]byte, 64-10)
	if err := r.ReadFull(context.Background(), rest); err != nil {
		t.Fatalf("rest of a verified page: %v", err)
	}
	if !bytes.Equal(rest, data[2*64+10:3*64]) {
		t.Fatal("rest of a verified page: wrong bytes")
	}
	if err := r.ReadFull(context.Background(), make([]byte, 2*64)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read into a corrupted page = %v, want ErrCorrupt", err)
	}
}

// TestReaderFlippedCRC: a flipped checksum byte fails the page's load.
func TestReaderFlippedCRC(t *testing.T) {
	s := smallPageStore(t, pattern(300))
	corruptAt(t, s, "r", pageOffset(s, 1)+8)
	r, err := s.OpenReader(context.Background(), "r", 60)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReadFull(context.Background(), make([]byte, 4)); err != nil {
		t.Fatalf("page 0 is intact: %v", err)
	}
	if err := r.ReadFull(context.Background(), make([]byte, 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read into page 1 = %v, want ErrCorrupt", err)
	}
}

// TestReaderCancel: a cancelled ctx stops OpenReader, and ReadFull at the
// next page it has to load.
func TestReaderCancel(t *testing.T) {
	s := smallPageStore(t, pattern(300))
	ctx, cancel := context.WithCancel(context.Background())
	r, err := s.OpenReader(ctx, "r", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ReadFull(ctx, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := r.ReadFull(ctx, make([]byte, 100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadFull after cancel = %v, want context.Canceled", err)
	}
	if _, err := s.OpenReader(ctx, "r", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenReader after cancel = %v, want context.Canceled", err)
	}
}

// FuzzReaderMatchesReadAt: consecutive ReadFull calls from any start return
// what ReadAt returns for the same ranges, and what was written.
func FuzzReaderMatchesReadAt(f *testing.F) {
	f.Add(pattern(1000), uint16(37), []byte{5, 64, 100, 1})
	f.Add([]byte{}, uint16(0), []byte{})
	f.Add(pattern(64), uint16(63), []byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte, start uint16, lens []byte) {
		s := smallPageStore(t, data)
		off := 0
		if len(data) > 0 {
			off = int(start) % (len(data) + 1)
		}
		r, err := s.OpenReader(context.Background(), "r", int64(off))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, l := range lens {
			n := min(int(l), len(data)-off)
			got := make([]byte, n)
			if err := r.ReadFull(context.Background(), got); err != nil {
				t.Fatalf("ReadFull(%d) at %d: %v", n, off, err)
			}
			want := make([]byte, n)
			if err := s.ReadAt(context.Background(), "r", int64(off), want); err != nil {
				t.Fatalf("ReadAt(%d,%d): %v", off, n, err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("range [%d,%d) differs", off, off+n)
			}
			off += n
		}
	})
}
