package fp

import "zkphire/internal/cpu"

// Eight-lane vector kernel (lanes_amd64.s) on AVX-512 IFMA. A Lanes value
// holds eight independent elements limb-major in radix 2^52: Lanes[j][l] is
// bits 52j..52j+51 of lane l's Montgomery limbs, so one zmm register holds
// one limb of all eight lanes and VPMADD52LUQ/VPMADD52HUQ form eight 52×52
// limb products at once. Mul, Sub and Add are lane-wise and bit-identical
// to Element's Mul, Sub and Add on every lane: the product reduces by
// 7×52 + 20 bits, so its Montgomery radix is 2^384 as for Element. Inputs
// must be canonical (Pack of elements below p, or an earlier result), and
// so is every output.
//
// The kernel is chosen like mulADX, by the CPU alone (cpu.IFMA): HasLanes
// reports it, and Mul, Sub and Add panic where it is absent (other CPUs,
// other architectures, -tags purego). A caller keeps a scalar path for that
// case.

// LaneCount is the number of elements a Lanes value holds.
const LaneCount = 8

// laneLimbs is the number of 52-bit limbs per lane: 8·52 = 416 ≥ 381.
const laneLimbs = 8

// Lanes is LaneCount elements in the vector kernel's layout (see above).
type Lanes [laneLimbs][LaneCount]uint64

// HasLanes reports whether this CPU runs the vector kernel (AVX512F and
// AVX512IFMA, with ZMM state enabled by the OS).
func HasLanes() bool { return cpu.IFMA }

// Pack sets z's lanes to x. It panics without the vector kernel.
func (z *Lanes) Pack(x *[LaneCount]Element) {
	needLanes()
	packLanesIFMA(z, x)
}

// Unpack writes z's lanes to x. It panics without the vector kernel.
func (z *Lanes) Unpack(x *[LaneCount]Element) {
	needLanes()
	unpackLanesIFMA(z, x)
}

// Mul sets z = x·y lane-wise. It panics without the vector kernel.
func (z *Lanes) Mul(x, y *Lanes) {
	needLanes()
	mulLanesIFMA(z, x, y)
}

// Sub sets z = x − y lane-wise. It panics without the vector kernel.
func (z *Lanes) Sub(x, y *Lanes) {
	needLanes()
	subLanesIFMA(z, x, y)
}

// Add sets z = x + y lane-wise. It panics without the vector kernel.
func (z *Lanes) Add(x, y *Lanes) {
	needLanes()
	addLanesIFMA(z, x, y)
}

func needLanes() {
	if !cpu.IFMA {
		panic("fp: Lanes arithmetic without AVX-512 IFMA (check HasLanes)")
	}
}

// laneConst is the kernel's constant table, read by lanes_amd64.s: p in
// 52-bit limbs, −p⁻¹ mod 2^52, and the 52- and 20-bit limb masks.
var laneConst [laneLimbs + 3]uint64

func init() {
	const mask52 = 1<<52 - 1
	pl := limbs52(&Element{pc0, pc1, pc2, pc3, pc4, pc5})
	copy(laneConst[:], pl[:])
	laneConst[laneLimbs] = pInvNegC & mask52
	laneConst[laneLimbs+1] = mask52
	laneConst[laneLimbs+2] = 1<<20 - 1
}

// limbs52 cuts x into the kernel's 52-bit limbs: limb j is bits
// 52j..52j+51.
func limbs52(x *Element) (l [laneLimbs]uint64) {
	for j := range l {
		bit := 52 * j
		w, s := bit/64, uint(bit%64)
		l[j] = x[w] >> s
		if s > 12 && w+1 < Limbs {
			l[j] |= x[w+1] << (64 - s)
		}
		l[j] &= 1<<52 - 1
	}
	return l
}
