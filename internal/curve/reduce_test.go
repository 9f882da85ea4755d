package curve

import (
	"fmt"
	"testing"

	"zkphire/internal/cpu/cputest"
)

// scalarReduce is each window's sum of a table by the definition: a
// scalar Jacobian running suffix sum over the window's buckets.
func scalarReduce(t *bucketTable) []G1Jac {
	sums := make([]G1Jac, t.windows)
	per := 1 << uint(t.c-1)
	for k := range sums {
		var running G1Jac
		running.SetInfinity()
		sums[k].SetInfinity()
		for b := (k+1)*per - 1; b >= k*per; b-- {
			if t.full[b] {
				running.AddMixed(&G1Affine{X: t.buckets[b].X, Y: t.buckets[b].Y})
			}
			sums[k].AddAssign(&running)
		}
	}
	return sums
}

// reduceCase makes table k of a run with the given window count: the
// zero table (never reached) when k mod 8 is 3, else a table whose window
// wi has the shape named by (k + wi) mod 8: sparse or dense buckets, all
// empty (2 and 3), only the bottom and top buckets, and bucket sequences
// that force H = 0 in each addition — the running sum meeting its own
// value (a doubling) or its negation, and the sum meeting the negated
// running sum.
func reduceCase(k, c, windows int, pts []G1Affine, next *int) bucketTable {
	point := func() G1Affine { *next++; return pts[(*next-1)%len(pts)] }
	if k%8 == 3 {
		return bucketTable{}
	}
	t := newBucketTable(c, windows)
	per := 1 << uint(c-1)
	for wi := range windows {
		off := wi * per
		set := func(b int, p G1Affine) { t.buckets[off+b], t.full[off+b] = affPair{p.X, p.Y}, true }
		switch (k + wi) % 8 {
		case 0, 1: // every other bucket, or all of them
			for b := 0; b < per; b += 2 - (k+wi)%8 {
				set(b, point())
			}
		case 2, 3: // all empty
		case 4: // the bottom and top buckets
			set(0, point())
			set(per-1, point())
		case 5: // running sum P meets P: the mixed addition doubles
			p := point()
			set(per-1, p)
			set(per-2, p)
			set(1, point())
		case 6: // running sum P meets −P: the running sum empties, then refills
			p := point()
			set(per-1, p)
			p.Neg(&p)
			set(per-2, p)
			set(per-4, point())
		case 7: // running P, then −P: the sum P meets −P in the full addition
			p := point()
			set(per-1, p)
			var m2 G1Jac
			m2.FromAffine(&p)
			m2.Double(&m2)
			m2.Neg(&m2)
			var q G1Affine
			q.FromJacobian(&m2)
			set(per-2, q)
			set(0, point())
		}
	}
	return t
}

// TestReduceMatchesScalar reduces tables of every shape reduceCase makes
// and checks each window against its scalar running sum, on every
// fp.Lanes body this host has. The widths give 2^(c−1) buckets per window
// that fill half a lane pass (c = 3), one bucket per lane (c = 4) and
// segments of 2 and 8 buckets (c = 5, 7) in a one-window table, and the
// window counts give 8/windows segments per window (1, 2, 3 windows),
// a window per lane (8) and a second, partial lane pass (11).
func TestReduceMatchesScalar(t *testing.T) {
	pts := multiplesOfG(1 << 10)
	for _, c := range []int{3, 4, 5, 7} {
		t.Run(fmt.Sprintf("c=%d", c), func(t *testing.T) {
			cputest.EachLaneBody(t, func(t *testing.T) {
				next := 0
				for _, windows := range []int{1, 2, 3, 8, 11} {
					for k := range 16 {
						tab := reduceCase(k, c, windows, pts, &next)
						want := make([]G1Jac, windows)
						got := make([]G1Jac, windows)
						for i := range want {
							want[i].SetInfinity()
							got[i].SetInfinity()
						}
						if tab.buckets != nil {
							want = scalarReduce(&tab)
						}
						tab.reduce(got)
						tab.release()
						for i := range want {
							if !got[i].Equal(&want[i]) {
								t.Fatalf("%d windows, table %d, window %d (shape %d): lanes reduce to %v, scalar running sum %v", windows, k, i, (k+i)%8, got[i], want[i])
							}
						}
					}
				}
			})
		})
	}
}
