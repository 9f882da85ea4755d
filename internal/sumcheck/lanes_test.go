package sumcheck

import (
	"testing"

	"zkphire/internal/expr"
	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
)

// TestScanLanesMatchesScalar is the lane scan's differential test: over
// pairs [lo, lo+h), scanLanes followed by scanBlocks on the pairs it leaves
// must give the round polynomial scanBlocks alone gives, limb for limb, for
// every registry composite, the sweep's high-degree gates and a composite
// with a constant term (a zero-padded lane would add that constant), with
// and without ZeroCheck weights, at half-sizes 1–9, 63, 64, 65 and 1000
// and both an aligned and an unaligned start.
func TestScanLanesMatchesScalar(t *testing.T) {
	if !ff.HasLanes() {
		t.Skip("no AVX512IFMA on this CPU, or built with -tags purego or off amd64: the scan has no lane path")
	}
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
	for _, c := range comps {
		tables := make([]*mle.Table, c.NumVars())
		for i := range tables {
			tables[i] = mle.FromEvals(rng.Elements(1 << numVars))
		}
		a, err := NewAssignment(c, tables)
		if err != nil {
			t.Fatal(err)
		}
		prog, d := c.Compile(), c.Degree()
		for _, h := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1000} {
			for _, lo := range []int{0, 5} {
				for _, w := range [][]ff.Element{nil, weights} {
					want := make([]ff.Element, max(d, 1))
					scanBlocks(nil, a, prog, d, w, lo, lo+h, want)
					got := make([]ff.Element, len(want))
					end := scanLanes(nil, a, prog, d, w, lo, lo+h, got)
					if end != lo+h&^7 {
						t.Fatalf("%s h=%d lo=%d: scanLanes stopped at %d", c.Name, h, lo, end)
					}
					scanBlocks(nil, a, prog, d, w, end, lo+h, got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s h=%d lo=%d weighted=%v: point %d lane scan %x, scalar %x", c.Name, h, lo, w != nil, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
