//go:build !purego

package fp

// mulADX sets z = x*y mod p (mul_amd64.s). Callers must check cpu.ADX.
//
//go:noescape
func mulADX(z, x, y *Element)

// mulLanes, subLanes, addLanes, packLanes and unpackLanes are the IFMA
// body's row kernels (lanes_amd64.s). Callers must check cpu.IFMA and pass
// n ≥ 0 values behind each pointer.
//
//go:noescape
func mulLanes(z, x, y *Lanes, n int)

//go:noescape
func subLanes(z, x, y *Lanes, n int)

//go:noescape
func addLanes(z, x, y *Lanes, n int)

//go:noescape
func packLanes(z *Lanes, n int)

//go:noescape
func unpackLanes(z *Lanes, n int)
