//go:build !amd64 || purego

package ff

// Without the amd64 kernels (other architectures, or -tags purego) Mul,
// Square, MulVec and ScalarMulVec are mulGeneric and squareGeneric, and the
// Lanes kernel is absent; the constants let the compiler drop the dispatch
// branches.
const (
	hasADX  = false
	hasIFMA = false
)

func mulADX(z, x, y *Element) { panic("ff: mulADX without the amd64 kernel") }

func mulVec(z, x, y *Element, n int) { panic("ff: mulVec without the amd64 kernel") }

func scalarMulVec(z, x, c *Element, n int) { panic("ff: scalarMulVec without the amd64 kernel") }

func mulLanes(z, x, y *Lanes, n, yStep int) { panic("ff: mulLanes without the amd64 kernel") }

func subLanes(z, x, y *Lanes, n int) { panic("ff: subLanes without the amd64 kernel") }

func addLanes(z, x, y *Lanes, n int) { panic("ff: addLanes without the amd64 kernel") }

func packLanes(z *Lanes, x *Element, n int) { panic("ff: packLanes without the amd64 kernel") }

func packLanesEven(z *Lanes, x *Element, n int) {
	panic("ff: packLanesEven without the amd64 kernel")
}

func unpackLanes(x *Element, z *Lanes, n int) { panic("ff: unpackLanes without the amd64 kernel") }
