//go:build !purego

package ff

// mulADX sets z = x*y mod q (mul_amd64.s). Callers must check cpu.ADX.
//
//go:noescape
func mulADX(z, x, y *Element)

// mulVec sets z[i] = x[i]*y[i] for i < n (mul_amd64.s). Callers must check
// cpu.ADX and pass n ≥ 0 elements behind each pointer.
//
//go:noescape
func mulVec(z, x, y *Element, n int)

// scalarMulVec sets z[i] = x[i]*c for i < n (mul_amd64.s). Callers must
// check cpu.ADX and pass n ≥ 0 elements behind z and x.
//
//go:noescape
func scalarMulVec(z, x, c *Element, n int)

// mulLanes, subLanes, addLanes, packLanes, packLanesPairs and unpackLanes
// are the Lanes row kernels (lanes_amd64.s). Callers must check cpu.IFMA
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
func packLanesPairs(even, odd *Lanes, x *Element, n int)

//go:noescape
func unpackLanes(x *Element, z *Lanes, n int)
