//go:build !purego

package fp

// mulADX sets z = x*y mod p (mul_amd64.s). Callers must check cpu.ADX.
//
//go:noescape
func mulADX(z, x, y *Element)

// mulLanesIFMA, subLanesIFMA, addLanesIFMA, packLanesIFMA and
// unpackLanesIFMA are Lanes' methods (lanes_amd64.s). Callers must check
// cpu.IFMA.
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
