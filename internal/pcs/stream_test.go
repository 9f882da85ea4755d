package pcs

import (
	"context"
	"math/rand"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// TestCommitStreamMatchesMonolithic feeds a table in the product-tree
// emission pattern (N leaves, then halving levels, then the root/pad pair)
// and in randomized segmentations, checking the streamed commitment equals
// CommitWorkers bit-for-bit.
func TestCommitStreamMatchesMonolithic(t *testing.T) {
	srs := SetupDeterministic(8, 1234)
	rng := ff.NewRand(99)
	const nv = 7
	tab := mle.FromEvals(rng.Elements(1 << nv))
	want, err := srs.CommitWorkers(tab, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Product-tree pattern: leaves [0, n), levels, root/pad.
	n := (1 << nv) / 2
	sc, err := srs.CommitStream(nv)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(off, ln int) {
		if err := sc.Feed(context.Background(), off, tab.Evals[off:off+ln], 2); err != nil {
			t.Fatal(err)
		}
	}
	feed(0, n)
	for width := n / 2; width > 1; width /= 2 {
		off := n - 2*width
		feed(n+off, width)
	}
	feed(2*n-2, 2)
	got, err := sc.Finish(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Point.Equal(&want.Point) || got.NumVars != want.NumVars {
		t.Fatal("tree-pattern streamed commitment diverged from monolithic commit")
	}

	// Randomized segmentations in shuffled arrival order.
	for trial := 0; trial < 5; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		var segs [][2]int
		for off := 0; off < tab.Size(); {
			ln := 1 + r.Intn(tab.Size()-off)
			segs = append(segs, [2]int{off, ln})
			off += ln
		}
		r.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		sc, err := srs.CommitStream(nv)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs {
			feedErr := sc.Feed(context.Background(), s[0], tab.Evals[s[0]:s[0]+s[1]], 1)
			if feedErr != nil {
				t.Fatal(feedErr)
			}
		}
		got, err := sc.Finish(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Point.Equal(&want.Point) {
			t.Fatalf("trial %d: randomized streamed commitment diverged", trial)
		}
	}
}

// TestCommitStreamCoverage pins the Finish error when segments do not cover
// the table.
func TestCommitStreamCoverage(t *testing.T) {
	srs := SetupDeterministic(4, 5)
	sc, err := srs.CommitStream(3)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]ff.Element, 4)
	if err := sc.Feed(context.Background(), 0, vals, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Finish(context.Background(), 1); err == nil {
		t.Fatal("Finish accepted partial coverage")
	}
	if err := sc.Feed(context.Background(), 0, make([]ff.Element, 16), 1); err == nil {
		t.Fatal("Feed accepted out-of-range segment")
	}
}

// TestCommitStreamFeedErrorSticks: a Feed that fails (here on a cancelled
// context) may leave part of its segment added, so Finish must return that
// error rather than a commitment, although the fed count covers the table.
func TestCommitStreamFeedErrorSticks(t *testing.T) {
	srs := SetupDeterministic(4, 5)
	sc, err := srs.CommitStream(3)
	if err != nil {
		t.Fatal(err)
	}
	vals := ff.NewRand(6).Elements(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sc.Feed(ctx, 0, vals, 1); err != context.Canceled {
		t.Fatalf("Feed on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := sc.Feed(context.Background(), 0, vals, 1); err != context.Canceled {
		t.Fatalf("Feed after a failed Feed = %v, want the first error", err)
	}
	if _, err := sc.Finish(context.Background(), 1); err != context.Canceled {
		t.Fatalf("Finish after a failed Feed = %v, want the first error", err)
	}
}

// TestCommitCtxCancelled checks CommitCtx returns promptly with ctx.Err()
// on a pre-cancelled context and that the error propagates from the MSM.
func TestCommitCtxCancelled(t *testing.T) {
	srs := SetupDeterministic(8, 7)
	rng := ff.NewRand(3)
	tab := mle.FromEvals(rng.Elements(1 << 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srs.CommitCtx(ctx, tab, 2); err != context.Canceled {
		t.Fatalf("CommitCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, _, err := srs.OpenWorkersCtx(ctx, tab, rng.Elements(8), 2); err != context.Canceled {
		t.Fatalf("OpenWorkersCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}
