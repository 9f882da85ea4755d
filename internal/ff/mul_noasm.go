//go:build !amd64 || purego

package ff

// Without the amd64 kernels (other architectures, or -tags purego) Mul,
// Square, MulVec and ScalarMulVec are mulGeneric, and the Lanes kernel is
// absent: cpu.ADX and cpu.IFMA are the constant false, so the compiler
// drops the dispatch branches and these stubs are never called.

func mulADX(z, x, y *Element) { panic("ff: mulADX without the amd64 kernel") }

func mulVec(z, x, y *Element, n int) { panic("ff: mulVec without the amd64 kernel") }

func scalarMulVec(z, x, c *Element, n int) { panic("ff: scalarMulVec without the amd64 kernel") }

func mulLanes(z, x, y *Lanes, n, yStep int) { panic("ff: mulLanes without the amd64 kernel") }

func subLanes(z, x, y *Lanes, n int) { panic("ff: subLanes without the amd64 kernel") }

func addLanes(z, x, y *Lanes, n int) { panic("ff: addLanes without the amd64 kernel") }

func packLanes(z *Lanes, x *Element, n int) { panic("ff: packLanes without the amd64 kernel") }

func packLanesPairs(even, odd *Lanes, x *Element, n int) {
	panic("ff: packLanesPairs without the amd64 kernel")
}

func unpackLanes(x *Element, z *Lanes, n int) { panic("ff: unpackLanes without the amd64 kernel") }
