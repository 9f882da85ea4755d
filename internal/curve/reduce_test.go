package curve

import (
	"fmt"
	"testing"
)

// scalarReduce is a table's window sum by the definition: a scalar
// Jacobian running suffix sum over its buckets and overflow buckets.
func scalarReduce(t *bucketTable) G1Jac {
	var running, sum G1Jac
	running.SetInfinity()
	sum.SetInfinity()
	for b := len(t.buckets) - 1; b >= 0; b-- {
		if t.full[b] {
			running.AddMixed(&G1Affine{X: t.buckets[b].X, Y: t.buckets[b].Y})
		}
		if t.overflow != nil {
			running.AddAssign(&t.overflow[b])
		}
		sum.AddAssign(&running)
	}
	return sum
}

// reduceCase fills table k of a grid with the shape named by k mod 8:
// sparse or dense buckets, all empty, never reached (the zero table),
// overflow buckets (with and without an affine bucket beside them), and
// bucket sequences that force H = 0 in each addition — the running sum
// meeting its own value (a doubling) or its negation, and the sum meeting
// the negated running sum.
func reduceCase(k, c int, pts []G1Affine, next *int) bucketTable {
	point := func() G1Affine { *next++; return pts[*next-1] }
	shape := k % 8
	if shape == 3 {
		return bucketTable{}
	}
	t := newBucketTable(c)
	nb := len(t.buckets)
	set := func(b int, p G1Affine) { t.buckets[b], t.full[b] = affPair{p.X, p.Y}, true }
	switch shape {
	case 0, 1: // every other bucket, or all of them
		for b := 0; b < nb; b += 2 - shape {
			set(b, point())
		}
	case 2: // all empty
	case 4: // overflow beside and without affine buckets, at the top too
		t.overflow = jacArena.Get(nb)
		for b := range t.overflow {
			t.overflow[b].SetInfinity()
			if b%3 != 1 {
				p := point()
				t.overflow[b].FromAffine(&p)
				t.overflow[b].Double(&t.overflow[b])
			}
			if b%2 == 0 {
				set(b, point())
			}
		}
	case 5: // running sum P meets P: the mixed addition doubles
		p := point()
		set(nb-1, p)
		set(nb-2, p)
		set(1, point())
	case 6: // running sum P meets −P: the running sum empties, then refills
		p := point()
		set(nb-1, p)
		p.Neg(&p)
		set(nb-2, p)
		set(nb-4, point())
	case 7: // running P, then −P: the sum P meets −P in the full addition
		p := point()
		set(nb-1, p)
		var m2 G1Jac
		m2.FromAffine(&p)
		m2.Double(&m2)
		m2.Neg(&m2)
		var q G1Affine
		q.FromJacobian(&m2)
		set(nb-2, q)
		set(0, point())
	}
	return t
}

// TestReduceMatchesScalar reduces tables of every shape reduceCase makes,
// at widths whose 2^(c−1) buckets fill half the lanes (c = 3), one bucket
// per lane (c = 4) and segments of 2 and 8 buckets (c = 5, 7), and checks
// each against its scalar running sum, on every fp.Lanes body this host
// has.
func TestReduceMatchesScalar(t *testing.T) {
	pts := multiplesOfG(16 * (1 << 6) * 2)
	for _, c := range []int{3, 4, 5, 7} {
		t.Run(fmt.Sprintf("c=%d", c), func(t *testing.T) {
			eachLaneBody(t, func(t *testing.T) {
				next := 0
				for k := range 16 {
					tab := reduceCase(k, c, pts, &next)
					want, got := scalarReduce(&tab), tab.reduce()
					tab.release()
					if !got.Equal(&want) {
						t.Fatalf("table %d (shape %d): lanes reduce to %v, scalar running sum %v", k, k%8, got, want)
					}
				}
			})
		})
	}
}
