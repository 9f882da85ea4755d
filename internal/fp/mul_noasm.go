//go:build !amd64 || purego

package fp

// Without the amd64 kernels (other architectures, or -tags purego) Mul and
// Square are the portable mulGeneric and squareGeneric, and the Lanes
// kernel is absent; the constants let the compiler drop the dispatch
// branches.
const (
	hasADX  = false
	hasIFMA = false
)

func mulADX(z, x, y *Element) { panic("fp: mulADX without the amd64 kernel") }

func mulLanesIFMA(z, x, y *Lanes) { panic("fp: mulLanesIFMA without the amd64 kernel") }

func subLanesIFMA(z, x, y *Lanes) { panic("fp: subLanesIFMA without the amd64 kernel") }

func addLanesIFMA(z, x, y *Lanes) { panic("fp: addLanesIFMA without the amd64 kernel") }

func packLanesIFMA(z *Lanes, x *[LaneCount]Element) {
	panic("fp: packLanesIFMA without the amd64 kernel")
}

func unpackLanesIFMA(z *Lanes, x *[LaneCount]Element) {
	panic("fp: unpackLanesIFMA without the amd64 kernel")
}
