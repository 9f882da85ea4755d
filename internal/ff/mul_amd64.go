//go:build !purego

package ff

// hasADX reports whether this CPU has BMI2 and ADX, probed once at package
// init (before any init function runs, so the Mul calls in init see it).
// It selects the assembly kernels over mulGeneric in Mul, Square, MulVec
// and ScalarMulVec; there is no other switch — both are exact field
// arithmetic and agree bit for bit.
var hasADX = cpuHasADX()

// mulADX sets z = x*y mod q (mul_amd64.s). Callers must check hasADX.
//
//go:noescape
func mulADX(z, x, y *Element)

// mulVec sets z[i] = x[i]*y[i] for i < n (mul_amd64.s). Callers must check
// hasADX and pass n ≥ 0 elements behind each pointer.
//
//go:noescape
func mulVec(z, x, y *Element, n int)

// scalarMulVec sets z[i] = x[i]*c for i < n (mul_amd64.s). Callers must
// check hasADX and pass n ≥ 0 elements behind z and x.
//
//go:noescape
func scalarMulVec(z, x, c *Element, n int)

func cpuHasADX() bool
