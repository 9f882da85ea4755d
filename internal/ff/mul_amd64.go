//go:build !purego

package ff

// hasADX reports whether this CPU has BMI2 and ADX, probed once at package
// init (before any init function runs, so the Mul calls in init see it).
// It selects the assembly kernels over mulGeneric in Mul, Square, MulVec
// and ScalarMulVec; there is no other switch — both are exact field
// arithmetic and agree bit for bit.
var hasADX = cpuHasADX()

// hasIFMA reports whether this CPU has AVX512F and AVX512IFMA and the OS
// saves ZMM state, probed the same way; it gates the Lanes kernel
// (lanes_amd64.s), which the SumCheck scan and FoldVec use.
var hasIFMA = cpuHasIFMA()

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

// mulLanes, subLanes, addLanes, packLanes, packLanesEven and unpackLanes
// are the Lanes row kernels (lanes_amd64.s). Callers must check hasIFMA
// and pass n ≥ 0 values behind each pointer (mulLanes reads one y when
// yStep is 0).
//
//go:noescape
func mulLanes(z, x, y *Lanes, n, yStep int)

//go:noescape
func subLanes(z, x, y *Lanes, n int)

//go:noescape
func addLanes(z, x, y *Lanes, n int)

//go:noescape
func packLanes(z *Lanes, x *Element, n int)

//go:noescape
func packLanesEven(z *Lanes, x *Element, n int)

//go:noescape
func unpackLanes(x *Element, z *Lanes, n int)

func cpuHasIFMA() bool
