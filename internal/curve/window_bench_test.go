package curve

import (
	"fmt"
	"testing"

	"zkphire/internal/ff"
)

// BenchmarkMSMWindowSweep measures Pippenger window widths directly; it
// backs the windowSize table. At each size it sweeps the current tier ±2,
// single-threaded. Run with -benchtime=1x at the large sizes (seconds per
// op) and alternate two passes before believing a difference under 5%.
func BenchmarkMSMWindowSweep(b *testing.B) {
	rng := ff.NewRand(91)
	g := Generator()
	n := 1 << 17
	jacs := make([]G1Jac, n)
	var acc G1Jac
	acc.SetInfinity()
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	points := BatchFromJacobian(jacs)
	for _, lg := range []int{10, 15, 16, 17} {
		scalars := rng.Elements(1 << lg)
		tier := windowSize(1 << lg)
		for c := tier - 2; c <= tier+2; c++ {
			b.Run(fmt.Sprintf("2^%d/c=%d", lg, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					msmGLVCtx(nil, points[:1<<lg], nil, scalars, 1, c)
				}
			})
		}
	}
}
