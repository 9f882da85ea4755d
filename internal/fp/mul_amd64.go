//go:build !purego

package fp

// hasADX reports whether this CPU has BMI2 and ADX, probed once at package
// init (before any init function runs, so the Mul calls in init see it).
// It selects mulADX over mulGeneric in Mul and Square; there is no other
// switch — both are exact field arithmetic and agree bit for bit.
var hasADX = cpuHasADX()

// hasIFMA reports whether this CPU has AVX512F and AVX512IFMA and the OS
// saves ZMM state, probed the same way; it gates the Lanes kernel
// (lanes_amd64.s), which the curve layer's batch-affine additions use.
var hasIFMA = cpuHasIFMA()

// mulADX sets z = x*y mod p (mul_amd64.s). Callers must check hasADX.
//
//go:noescape
func mulADX(z, x, y *Element)

func cpuHasADX() bool

// mulLanesIFMA, subLanesIFMA, addLanesIFMA, packLanesIFMA and
// unpackLanesIFMA are Lanes' methods (lanes_amd64.s). Callers must check
// hasIFMA.
//
//go:noescape
func mulLanesIFMA(z, x, y *Lanes)

//go:noescape
func subLanesIFMA(z, x, y *Lanes)

//go:noescape
func addLanesIFMA(z, x, y *Lanes)

//go:noescape
func packLanesIFMA(z *Lanes, x *[LaneCount]Element)

//go:noescape
func unpackLanesIFMA(z *Lanes, x *[LaneCount]Element)

func cpuHasIFMA() bool
