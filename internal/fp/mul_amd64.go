//go:build !purego

package fp

// hasADX reports whether this CPU has BMI2 and ADX, probed once at package
// init (before any init function runs, so the Mul calls in init see it).
// It selects mulADX over mulGeneric in Mul and Square; there is no other
// switch — both are exact field arithmetic and agree bit for bit.
var hasADX = cpuHasADX()

// mulADX sets z = x*y mod p (mul_amd64.s). Callers must check hasADX.
//
//go:noescape
func mulADX(z, x, y *Element)

func cpuHasADX() bool
