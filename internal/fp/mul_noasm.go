//go:build !amd64 || purego

package fp

// Without the amd64 kernels (other architectures, or -tags purego) Mul and
// Square are the portable mulGeneric, and Lanes runs its portable body:
// cpu.ADX and cpu.IFMA are the constant false, so the compiler drops the
// dispatch branches and these stubs are never called.

func mulADX(z, x, y *Element) { panic("fp: mulADX without the amd64 kernel") }

func mulLanes(z, x, y *Lanes, n int) { panic("fp: mulLanes without the amd64 kernel") }

func subLanes(z, x, y *Lanes, n int) { panic("fp: subLanes without the amd64 kernel") }

func addLanes(z, x, y *Lanes, n int) { panic("fp: addLanes without the amd64 kernel") }

func packLanes(z *Lanes, n int) { panic("fp: packLanes without the amd64 kernel") }

func unpackLanes(z *Lanes, n int) { panic("fp: unpackLanes without the amd64 kernel") }
