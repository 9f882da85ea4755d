//go:build !amd64 || purego

package fp

// Without the amd64 kernel (other architectures, or -tags purego) Mul and
// Square are the portable mulGeneric and squareGeneric; the constant lets
// the compiler drop the dispatch branch.
const hasADX = false

func mulADX(z, x, y *Element) { panic("fp: mulADX without the amd64 kernel") }
