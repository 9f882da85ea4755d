package curve

import (
	"context"
	"fmt"
	"testing"

	"zkphire/internal/cpu/cputest"
	"zkphire/internal/ff"
	"zkphire/internal/parallel"
)

// TestMSMGridShapes sweeps the one-shot and the streamed MSM over every
// grid shape against MSMNaive, on every fp.Lanes body this host has. The
// sizes run from no point through one partial lane group of point pairs to
// 2^12 + 5, so the window runs through every tier up to c = 10; the
// budgets make one group of every window (1 worker: 8 or more windows a
// table, several lane passes), groups of 1 < g < 8 windows (2 and 7
// workers: 8/g segments per window) and more workers than windows (64:
// one window a table and several lanes). The scalars are dense, one
// constant (every point in the same bucket of each window, so the drain
// tree-reduces deep conflict clusters to the last pair), and dense with
// zeros and ones; the stream takes each input in three chunks.
func TestMSMGridShapes(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 8, 9}
	for n := 16; n <= 1<<12; n <<= 1 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 1<<12+5)
	maxN := sizes[len(sizes)-1]
	points := multiplesOfG(maxN)
	rng := ff.NewRand(44)
	constant := make([]ff.Element, maxN)
	k := rng.Element()
	for i := range constant {
		constant[i] = k
	}
	kinds := []struct {
		name    string
		scalars []ff.Element
		want    []G1Jac // want[j] = MSMNaive over the first sizes[j] points
	}{
		{name: "dense", scalars: rng.Elements(maxN)},
		{name: "constant", scalars: constant},
		{name: "zeros and ones", scalars: withZerosAndOnes(rng.Elements(maxN))},
	}
	parallel.Run(0, len(kinds), func(i int) {
		kd := &kinds[i]
		var acc G1Jac
		acc.SetInfinity()
		for j, n := range sizes {
			lo := 0
			if j > 0 {
				lo = sizes[j-1]
			}
			part := MSMNaive(points[lo:n], kd.scalars[lo:n])
			acc.AddAssign(&part)
			kd.want = append(kd.want, acc)
		}
	})
	cputest.EachLaneBody(t, func(t *testing.T) {
		for _, kd := range kinds {
			for j, n := range sizes {
				pts, scalars, want := points[:n], kd.scalars[:n], &kd.want[j]
				for _, w := range []int{1, 2, 7, 64} {
					name := fmt.Sprintf("%s n=%d workers=%d", kd.name, n, w)
					if got := MSMWorkers(pts, scalars, w); !got.Equal(want) {
						t.Fatalf("%s: MSM differs from MSMNaive", name)
					}
					if n < 3 {
						continue
					}
					got, err := streamChunked(context.Background(), pts, scalars, n/3+1, w)
					if err != nil || !got.Equal(want) {
						t.Fatalf("%s: three-chunk StreamMSM differs from MSMNaive (%v)", name, err)
					}
				}
			}
		}
	})
}
