//go:build !amd64 || purego

package ff

// Without the amd64 kernel (other architectures, or -tags purego) Mul,
// Square, MulVec and ScalarMulVec are mulGeneric and squareGeneric; the
// constant lets the compiler drop the dispatch branch.
const hasADX = false

func mulADX(z, x, y *Element) { panic("ff: mulADX without the amd64 kernel") }

func mulVec(z, x, y *Element, n int) { panic("ff: mulVec without the amd64 kernel") }

func scalarMulVec(z, x, c *Element, n int) { panic("ff: scalarMulVec without the amd64 kernel") }
