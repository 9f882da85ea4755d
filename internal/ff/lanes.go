package ff

import "zkphire/internal/cpu"

// Eight-lane vector kernel (lanes_amd64.s) on AVX-512 IFMA: internal/fp's
// Lanes resized to the scalar field. A Lanes value holds eight independent
// elements limb-major in radix 2^52: Lanes[j][l] is bits 52j..52j+51 of
// lane l's Montgomery limbs, so one zmm register holds one limb of all
// eight lanes. Five limbs hold 260 bits; canonical elements are below
// q < 2^255, so the top limb is below 2^47. The products, differences and
// sums are lane-wise and bit-identical to Element's Mul, Sub and Add: the
// product reduces by 4×52 + 48 bits, so its Montgomery radix is 2^256 as
// for Element. Inputs must be canonical (packed elements below q, an
// earlier result, or Broadcast of a canonical element), and so is every
// output.
//
// The row functions (PackLanes, MulLanes, …) run a whole slice inside one
// assembly call. The kernel is chosen like mulADX, by the CPU alone
// (cpu.IFMA): HasLanes reports it, and everything here except Broadcast
// panics where it is absent (other CPUs, other architectures, -tags
// purego). A caller keeps a scalar path for that case.

// LaneCount is the number of elements a Lanes value holds.
const LaneCount = 8

// laneLimbs is the number of 52-bit limbs per lane: 5·52 = 260 ≥ 255.
const laneLimbs = 5

// Lanes is LaneCount elements in the vector kernel's layout (see above).
// The zero value is eight zeros.
type Lanes [laneLimbs][LaneCount]uint64

// HasLanes reports whether this CPU runs the vector kernel (AVX512F and
// AVX512IFMA, with ZMM state enabled by the OS).
func HasLanes() bool { return cpu.IFMA }

// Broadcast sets every lane of z to c. It runs on every CPU.
func (z *Lanes) Broadcast(c *Element) {
	l := limbs52(c)
	for j := range z {
		for k := range z[j] {
			z[j][k] = l[j]
		}
	}
}

// PackLanes sets lane l of z[k] to x[8k+l]; len(x) must be 8·len(z).
func PackLanes(z []Lanes, x []Element) {
	needLanes()
	if len(x) != LaneCount*len(z) {
		panic("ff: PackLanes length mismatch")
	}
	if len(z) > 0 {
		packLanes(&z[0], &x[0], len(z))
	}
}

// PackLanesEven sets lane l of z[k] to x[2(8k+l)], the even entries of x:
// for a table of (even, odd) pairs, x = pairs packs the evens and
// x = pairs[1:] the odds. len(x) must be 16·len(z) or one less.
func PackLanesEven(z []Lanes, x []Element) {
	needLanes()
	if n := 2 * LaneCount * len(z); len(x) != n && len(x) != n-1 {
		panic("ff: PackLanesEven length mismatch")
	}
	if len(z) > 0 {
		packLanesEven(&z[0], &x[0], len(z))
	}
}

// UnpackLanes sets x[8k+l] to lane l of z[k]; len(x) must be 8·len(z).
func UnpackLanes(x []Element, z []Lanes) {
	needLanes()
	if len(x) != LaneCount*len(z) {
		panic("ff: UnpackLanes length mismatch")
	}
	if len(z) > 0 {
		unpackLanes(&x[0], &z[0], len(z))
	}
}

// MulLanes sets z[k] = x[k]·y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func MulLanes(z, x, y []Lanes) {
	needLanes()
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: MulLanes length mismatch")
	}
	if len(z) > 0 {
		mulLanes(&z[0], &x[0], &y[0], len(z), laneBytes)
	}
}

// ScalarMulLanes sets z[k] = x[k]·c lane-wise. z may alias x (index for
// index). It panics if lengths differ.
func ScalarMulLanes(z, x []Lanes, c *Lanes) {
	needLanes()
	if len(x) != len(z) {
		panic("ff: ScalarMulLanes length mismatch")
	}
	if len(z) > 0 {
		mulLanes(&z[0], &x[0], c, len(z), 0)
	}
}

// AddLanes sets z[k] = x[k] + y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func AddLanes(z, x, y []Lanes) {
	needLanes()
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: AddLanes length mismatch")
	}
	if len(z) > 0 {
		addLanes(&z[0], &x[0], &y[0], len(z))
	}
}

// SubLanes sets z[k] = x[k] − y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func SubLanes(z, x, y []Lanes) {
	needLanes()
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: SubLanes length mismatch")
	}
	if len(z) > 0 {
		subLanes(&z[0], &x[0], &y[0], len(z))
	}
}

// laneBytes is the size of a Lanes value: mulLanes' step through a row of
// multipliers.
const laneBytes = laneLimbs * LaneCount * 8

func needLanes() {
	if !cpu.IFMA {
		panic("ff: Lanes arithmetic without AVX-512 IFMA (check HasLanes)")
	}
}

// laneConst is the kernel's constant table, read by lanes_amd64.s: q in
// 52-bit limbs, −q⁻¹ mod 2^52, and the 52- and 48-bit limb masks.
var laneConst [laneLimbs + 3]uint64

func init() {
	const mask52 = 1<<52 - 1
	ql := limbs52(&Element{qc0, qc1, qc2, qc3})
	copy(laneConst[:], ql[:])
	laneConst[laneLimbs] = qInvNegC & mask52
	laneConst[laneLimbs+1] = mask52
	laneConst[laneLimbs+2] = 1<<48 - 1
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
