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
	return BatchFromJacobian(jacs)
}

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
	endo := EndoPoints(points)
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

// TestStreamMSMMatchesMSM: a streamed MSM equals the one-shot MSM for every
// chunking and budget, both below the window cap (n = 300, against the
// naive sum) and above it (2^15 + 3 points size the one-shot window at 13,
// the stream's at the cap of 12).
func TestStreamMSMMatchesMSM(t *testing.T) {
	rng := ff.NewRand(41)
	small := randomPoints(rng, 300)
	smallScalars := withZerosAndOnes(rng.Elements(len(small)))
	large := multiplesOfG(1<<15 + 3)
	largeScalars := withZerosAndOnes(rng.Elements(len(large)))
	cases := []struct {
		points  []G1Affine
		scalars []ff.Element
		want    G1Jac
		chunks  []int
	}{
		{small, smallScalars, MSMNaive(small, smallScalars), []int{1, 7, len(small)}},
		{large, largeScalars, MSMWorkers(large, largeScalars, 0), []int{4095, 4096, len(large)}},
	}
	if windowSize(len(large)) <= streamMaxWindow {
		t.Fatalf("the large case no longer reaches the window cap")
	}
	for _, tc := range cases {
		for _, chunk := range tc.chunks {
			for _, w := range []int{1, 2, 3} {
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
// paths (a lone base point meets itself in its bucket), parks deep conflict
// clusters and sends their remnants to the Jacobian overflow, which then
// lives across chunks until Sum. The reference groups the scalars by base
// point, so it shares nothing with the bucket code.
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
		if got := MSMWorkers(points, scalars, 2); !got.Equal(&want) {
			t.Fatalf("%d base points: one-shot MSM differs", nb)
		}
		for _, chunk := range []int{64, 4095, 4096, n} {
			for _, w := range []int{1, 2} {
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
	endo := EndoPoints(points)
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

// FuzzStreamMSMChunking: a stream fed in arbitrary chunk lengths equals one
// MSMWorkers over the same input.
func FuzzStreamMSMChunking(f *testing.F) {
	f.Add(int64(1), uint16(100), []byte{3, 0, 17})
	f.Add(int64(2), uint16(1), []byte{})
	f.Add(int64(3), uint16(300), []byte{255, 1, 1, 64})
	pool := multiplesOfG(300)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cuts []byte) {
		points := pool[:1+int(n)%len(pool)]
		scalars := withZerosAndOnes(ff.NewRand(seed).Elements(len(points)))
		want := MSMWorkers(points, scalars, 1)
		m := NewStreamMSM(len(points), 2)
		endo := EndoPoints(points)
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
			t.Fatalf("n=%d cuts=%v: streamed MSM differs", len(points), cuts)
		}
	})
}
