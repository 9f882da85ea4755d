package curve

import (
	"context"
	"errors"
	"testing"

	"zkphire/internal/ff"
)

// multiplesOfG returns G, 2G, …, nG: n distinct points for the price of n
// additions, where randomPoints pays a scalar multiplication each.
func multiplesOfG(n int) []G1Affine {
	g := Generator()
	jacs := make([]G1Jac, n)
	var acc G1Jac
	acc.SetInfinity()
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	return BatchFromJacobianWorkers(jacs, 0)
}

// multiplesOfGMSM is Σ scalars[i]·(i+1)·G, the MSM over multiplesOfG's
// points, computed as one scalar sum and one ScalarMul: a reference that
// shares no code with the buckets.
func multiplesOfGMSM(scalars []ff.Element) G1Jac {
	var k, term ff.Element
	for i := range scalars {
		term = ff.NewElement(uint64(i + 1))
		term.Mul(&term, &scalars[i])
		k.Add(&k, &term)
	}
	g := GeneratorJac()
	var res G1Jac
	return *res.ScalarMul(&g, &k)
}

// streamBudgets are the worker budgets the stream tests run: the ones a
// 2-core host has, and 16 and 32, more workers than windows, so the lanes
// split every chunk.
var streamBudgets = []int{1, 2, 3, 16, 32}

// withZerosAndOnes overwrites every 5th scalar with 0 and every 7th with 1.
func withZerosAndOnes(scalars []ff.Element) []ff.Element {
	for i := range scalars {
		switch {
		case i%5 == 0:
			scalars[i] = ff.Zero()
		case i%7 == 0:
			scalars[i] = ff.One()
		}
	}
	return scalars
}

// streamChunked runs one StreamMSM over the input cut into chunks of the
// given size, fed last chunk first: arrival order must not matter.
func streamChunked(ctx context.Context, points []G1Affine, scalars []ff.Element, chunk, workers int) (G1Jac, error) {
	m := NewStreamMSM(len(points), workers)
	endo := EndoPoints(points, 0)
	var los []int
	for lo := 0; lo < len(points); lo += chunk {
		los = append(los, lo)
	}
	for i := len(los) - 1; i >= 0; i-- {
		lo := los[i]
		hi := min(lo+chunk, len(points))
		if err := m.Add(ctx, points[lo:hi], endo[lo:hi], scalars[lo:hi]); err != nil {
			return G1Jac{}, err
		}
	}
	return m.Sum(), nil
}

// TestStreamMSMMatchesMSM: a streamed MSM equals an independent reference
// for every chunking and budget, both below the window cap (n = 300,
// against the naive sum) and above it (2^16 + 3 points size the one-shot
// window at 13, the stream's at the cap of 12; the reference is
// multiplesOfGMSM, and the one-shot MSM must match it too).
func TestStreamMSMMatchesMSM(t *testing.T) {
	rng := ff.NewRand(41)
	small := randomPoints(rng, 300)
	smallScalars := withZerosAndOnes(rng.Elements(len(small)))
	large := multiplesOfG(1<<16 + 3)
	largeScalars := withZerosAndOnes(rng.Elements(len(large)))
	cases := []struct {
		points  []G1Affine
		scalars []ff.Element
		want    G1Jac
		chunks  []int
	}{
		{small, smallScalars, MSMNaive(small, smallScalars), []int{1, 7, len(small)}},
		{large, largeScalars, multiplesOfGMSM(largeScalars), []int{4095, 4096, len(large)}},
	}
	if windowSize(len(large)) <= streamMaxWindow {
		t.Fatalf("the large case no longer reaches the window cap")
	}
	for _, tc := range cases {
		if got := MSMWorkers(tc.points, tc.scalars, 0); !got.Equal(&tc.want) {
			t.Fatalf("n=%d: one-shot MSM differs", len(tc.points))
		}
		for _, chunk := range tc.chunks {
			for _, w := range streamBudgets {
				got, err := streamChunked(context.Background(), tc.points, tc.scalars, chunk, w)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(&tc.want) {
					t.Fatalf("n=%d chunk=%d workers=%d: streamed MSM differs", len(tc.points), chunk, w)
				}
			}
		}
	}
}

// TestStreamMSMDegenerate feeds one or three base points, repeated and
// negated, under two scalars plus zeros and ones: every window's additions
// pile into a few buckets, so the stream runs the doubling and P + (−P)
// paths (a lone base point meets itself in its bucket) and parks deep
// conflict clusters, which each chunk's drain tree-reduces to the last
// pair before its buckets live on to the next chunk and to Sum. The
// reference groups the scalars by base point, so it shares nothing with
// the bucket code.
func TestStreamMSMDegenerate(t *testing.T) {
	rng := ff.NewRand(42)
	ks := rng.Elements(2)
	const n = 9000
	for _, nb := range []int{1, 3} {
		base := randomPoints(rng, nb)
		points := make([]G1Affine, n)
		scalars := make([]ff.Element, n)
		coef := make([]ff.Element, nb)
		for i := range points {
			b := i % nb
			points[i] = base[b]
			scalars[i] = ks[(i/3)%2]
			switch {
			case i%11 == 0:
				scalars[i] = ff.Zero()
			case i%13 == 0:
				scalars[i] = ff.One()
			}
			s := scalars[i]
			if i%4 == 3 {
				points[i].Neg(&points[i])
				s.Neg(&s)
			}
			coef[b].Add(&coef[b], &s)
		}
		want := MSMNaive(base, coef)
		for _, w := range []int{2, 16, 32} {
			if got := MSMWorkers(points, scalars, w); !got.Equal(&want) {
				t.Fatalf("%d base points, workers=%d: one-shot MSM differs", nb, w)
			}
		}
		for _, chunk := range []int{64, 4095, 4096, n} {
			for _, w := range []int{1, 2, 16, 32} {
				got, err := streamChunked(context.Background(), points, scalars, chunk, w)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(&want) {
					t.Fatalf("%d base points, chunk=%d workers=%d: streamed MSM differs", nb, chunk, w)
				}
			}
		}
	}
}

// TestStreamMSMCancel: an Add after the context is cancelled returns
// ctx.Err(), also when the cancel lands between chunks of a live stream.
func TestStreamMSMCancel(t *testing.T) {
	points := multiplesOfG(2 * 4096)
	endo := EndoPoints(points, 0)
	scalars := ff.NewRand(43).Elements(len(points))
	ctx, cancel := context.WithCancel(context.Background())
	m := NewStreamMSM(len(points), 2)
	if err := m.Add(ctx, points[:4096], endo[:4096], scalars[:4096]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := m.Add(ctx, points[4096:], endo[4096:], scalars[4096:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Add after cancel = %v, want context.Canceled", err)
	}
}

// FuzzStreamMSMChunking: a stream fed in arbitrary chunk lengths on a
// worker budget of 1–40 equals multiplesOfGMSM over the same input.
func FuzzStreamMSMChunking(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(1), []byte{3, 0, 17})
	f.Add(int64(2), uint16(1), uint8(1), []byte{})
	f.Add(int64(3), uint16(300), uint8(1), []byte{255, 1, 1, 64})
	f.Add(int64(4), uint16(299), uint8(31), []byte{40, 200})
	pool := multiplesOfG(300)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, budget uint8, cuts []byte) {
		points := pool[:1+int(n)%len(pool)]
		scalars := withZerosAndOnes(ff.NewRand(seed).Elements(len(points)))
		want := multiplesOfGMSM(scalars)
		m := NewStreamMSM(len(points), 1+int(budget)%40)
		endo := EndoPoints(points, 0)
		for lo, i := 0, 0; lo < len(points); i++ {
			ln := len(points) - lo
			if len(cuts) > 0 {
				ln = min(ln, 1+int(cuts[i%len(cuts)]))
			}
			if err := m.Add(context.Background(), points[lo:lo+ln], endo[lo:lo+ln], scalars[lo:lo+ln]); err != nil {
				t.Fatal(err)
			}
			lo += ln
		}
		if got := m.Sum(); !got.Equal(&want) {
			t.Fatalf("n=%d budget=%d cuts=%v: streamed MSM differs", len(points), 1+int(budget)%40, cuts)
		}
	})
}

// TestStreamMSMLanes pins the grid's shape. A streamed 2^16 MSM (c = 12,
// 11 windows) at 32 workers has one window per group and 11 × 3 = 33
// tables, so each chunk offers at least 32 runnable tasks: the many-core
// scaling claim, stated structurally, since no test host has more cores
// than windows. At every size and budget, streamed and one-shot, the
// groups cover the windows, no table outgrows one flush, a group holds at
// most ⌈windows ÷ workers⌉ windows (one from c = 13 up, where the grid
// is one table per window and lane), and the grid offers a task per
// worker unless the lane cap holds it back.
func TestStreamMSMLanes(t *testing.T) {
	if m := NewStreamMSM(1<<16, 32); m.group != 1 || m.lanes != 3 || len(m.tables) < 32 {
		t.Fatalf("2^16 at 32 workers: %d windows per group, %d lanes, %d tasks; want 1, 3, >= 32", m.group, m.lanes, len(m.tables))
	}
	for _, n := range []int{1, 300, 1 << 12, 1 << 16, 1 << 20} {
		for w := 1; w <= 40; w++ {
			for _, m := range []*StreamMSM{NewStreamMSM(n, w), newStreamMSM(windowSize(n), n, w)} {
				groups := len(m.tables) / m.lanes
				capped := (2*n)>>uint(m.c-1) < (w+groups-1)/groups
				switch {
				case groups != (m.windows+m.group-1)/m.group:
					t.Fatalf("n=%d workers=%d: %d groups of %d for %d windows", n, w, groups, m.group, m.windows)
				case m.group<<uint(m.c-1) > maxBatch && m.group > 1:
					t.Fatalf("n=%d workers=%d c=%d: %d windows per table outgrow a flush", n, w, m.c, m.group)
				case m.group > (m.windows+w-1)/w || m.c >= 13 && m.group != 1:
					t.Fatalf("n=%d workers=%d c=%d: %d windows per group", n, w, m.c, m.group)
				case len(m.tables) < w && !capped:
					t.Fatalf("n=%d workers=%d: %d tasks", n, w, len(m.tables))
				}
			}
		}
	}
}
