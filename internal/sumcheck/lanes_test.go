package sumcheck

import (
	"testing"

	"zkphire/internal/cpu/cputest"
	"zkphire/internal/expr"
	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
)

// TestScanLanesMatchesScalar is the scan's differential test, on both
// ff.Lanes bodies: over pairs [lo, lo+h), scanLanes must give the round
// polynomial naiveRoundPolynomial gives, limb for limb, for every registry
// composite, the sweep's high-degree gates and a composite with a constant
// term (a zero-padded lane that was summed would add that constant), with
// and without ZeroCheck weights, at half-sizes 1–9, 63, 64, 65 and 1000
// and both an aligned and an unaligned start.
func TestScanLanesMatchesScalar(t *testing.T) {
	comps := []*poly.Composite{
		poly.HighDegree(8), poly.HighDegree(16),
		poly.FromExpr("with-const", -1, expr.Sum(
			expr.Prod(expr.V("a"), expr.P(expr.V("b"), 3)),
			expr.Prod(expr.C(3), expr.V("a")),
			expr.C(7),
		), nil),
	}
	for id := 0; id < poly.NumRegistered; id++ {
		comps = append(comps, poly.Registered(id))
	}
	const numVars = 11 // 1024 pairs, room for lo = 5 and h = 1000
	rng := ff.NewRand(39)
	weights := rng.Elements(1 << (numVars - 1))
	// The oracle is body-free, so each cell's answer is computed once.
	type cell struct {
		a     *Assignment
		h, lo int
		w     []ff.Element
		want  []ff.Element
	}
	var cells []cell
	for _, c := range comps {
		tables := make([]*mle.Table, c.NumVars())
		for i := range tables {
			tables[i] = mle.FromEvals(rng.Elements(1 << numVars))
		}
		a, err := NewAssignment(c, tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1000} {
			for _, lo := range []int{0, 5} {
				for _, w := range [][]ff.Element{nil, weights} {
					cells = append(cells, cell{a, h, lo, w, naiveRoundPolynomial(a, c.Degree(), w, lo, lo+h)})
				}
			}
		}
	}
	cputest.EachLaneBody(t, func(t *testing.T) {
		for _, k := range cells {
			c := k.a.Composite
			got := make([]ff.Element, len(k.want))
			scanLanes(nil, k.a, c.Compile(), c.Degree(), k.w, k.lo, k.lo+k.h, got)
			for i := range k.want {
				if got[i] != k.want[i] {
					t.Fatalf("%s h=%d lo=%d weighted=%v: point %d scan %x, naive %x", c.Name, k.h, k.lo, k.w != nil, i, got[i], k.want[i])
				}
			}
		}
	})
}
