package fp

import "zkphire/internal/cpu"

// Lanes holds eight independent elements, and the row functions (MulLanes,
// SubLanes, AddLanes) run the same operation on every lane of a whole
// slice of them in one call. Lanes has two bodies, chosen by cpu.IFMA (the
// CPU probe runs once, at init):
//
//   - the IFMA body (lanes_amd64.s), on AVX-512 IFMA: the row functions
//     take the elements limb-major in radix 2^52, Lanes[j][l] being bits
//     52j..52j+51 of lane l's Montgomery limbs, so one zmm register holds
//     one limb of all eight lanes and VPMADD52LUQ/VPMADD52HUQ form eight
//     52×52 limb products at once. Its product reduces by 7×52 + 20 bits,
//     so its Montgomery radix is 2^384 as for Element;
//   - the portable body, everywhere else (other CPUs, other architectures,
//     -tags purego): each row operation calls Element's Mul, Sub or Add
//     lane by lane.
//
// A value is in one of two forms. Set and Get address the staged form,
// the same under both bodies: Lanes[l][:Limbs] is lane l's Element, so a
// lane is written or read by one copy. PackLanes turns staged rows into
// the body's arithmetic form in place (an 8×8 transpose and shifts on the
// IFMA body; nothing on the portable one, whose arithmetic form is the
// staged form), and UnpackLanes turns them back. MulLanes, SubLanes,
// AddLanes, Broadcast, Blend and ZeroMask act on the arithmetic form.
//
// Both bodies are bit-identical to Element's Mul, Sub and Add on every
// lane, so callers have one control flow and no scalar twin. Inputs must
// be canonical (elements below p, or earlier results), and so is every
// output. Lanes are independent: whatever a lane holds never reaches
// another lane, so a caller may leave lanes it does not read unset.

// LaneCount is the number of elements a Lanes value holds.
const LaneCount = 8

// laneLimbs is the number of 52-bit limbs per lane: 8·52 = 416 ≥ 381.
const laneLimbs = 8

// Lanes is LaneCount elements in one of the two forms above. The zero
// value is eight zeros in either.
type Lanes [laneLimbs][LaneCount]uint64

// lane is lane l of z in the staged form.
func (z *Lanes) lane(l int) *Element { return (*Element)(z[l][:Limbs]) }

// Set sets lane l of the staged z to x. (Word by word: a whole-array copy
// through lane compiles to a memmove call.)
func (z *Lanes) Set(l int, x *Element) {
	r := &z[l]
	r[0], r[1], r[2], r[3], r[4], r[5] = x[0], x[1], x[2], x[3], x[4], x[5]
}

// Get sets x to lane l of the staged z.
func (z *Lanes) Get(l int, x *Element) {
	r := &z[l]
	x[0], x[1], x[2], x[3], x[4], x[5] = r[0], r[1], r[2], r[3], r[4], r[5]
}

// PackLanes turns staged rows into the arithmetic form, in place.
func PackLanes(z []Lanes) {
	if cpu.IFMA && len(z) > 0 {
		packLanes(&z[0], len(z))
	}
}

// UnpackLanes turns rows in the arithmetic form back into the staged
// form, in place.
func UnpackLanes(z []Lanes) {
	if cpu.IFMA && len(z) > 0 {
		unpackLanes(&z[0], len(z))
	}
}

// Broadcast sets every lane of z to x, in the arithmetic form.
func (z *Lanes) Broadcast(x *Element) {
	if !cpu.IFMA {
		for l := range LaneCount {
			z.Set(l, x)
		}
		return
	}
	limbs := limbs52(x)
	for j := range z {
		for l := range z[j] {
			z[j][l] = limbs[j]
		}
	}
}

// Blend copies the lanes of x whose bit is set in mask (bit l for lane l)
// into z; both are in the arithmetic form.
func (z *Lanes) Blend(mask uint8, x *Lanes) {
	if mask == 1<<LaneCount-1 {
		*z = *x
		return
	}
	for l := range LaneCount {
		if mask&(1<<l) == 0 {
			continue
		}
		if !cpu.IFMA {
			z[l] = x[l]
			continue
		}
		for j := range z {
			z[j][l] = x[j][l]
		}
	}
}

// ZeroMask returns the lanes of z, in the arithmetic form, that are zero:
// bit l for lane l.
func (z *Lanes) ZeroMask() uint8 {
	var nz [LaneCount]uint64
	if cpu.IFMA {
		for j := range z {
			for l := range nz {
				nz[l] |= z[j][l]
			}
		}
	} else {
		for l := range nz {
			for _, w := range z.lane(l) {
				nz[l] |= w
			}
		}
	}
	var mask uint8
	for l, w := range nz {
		if w == 0 {
			mask |= 1 << l
		}
	}
	return mask
}

// MulLanes sets z[k] = x[k]·y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func MulLanes(z, x, y []Lanes) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("fp: MulLanes length mismatch")
	}
	if len(z) == 0 {
		return
	}
	if cpu.IFMA {
		mulLanes(&z[0], &x[0], &y[0], len(z))
		return
	}
	for k := range z {
		for l := range LaneCount {
			z[k].lane(l).Mul(x[k].lane(l), y[k].lane(l))
		}
	}
}

// SubLanes sets z[k] = x[k] − y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func SubLanes(z, x, y []Lanes) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("fp: SubLanes length mismatch")
	}
	if len(z) == 0 {
		return
	}
	if cpu.IFMA {
		subLanes(&z[0], &x[0], &y[0], len(z))
		return
	}
	for k := range z {
		for l := range LaneCount {
			z[k].lane(l).Sub(x[k].lane(l), y[k].lane(l))
		}
	}
}

// AddLanes sets z[k] = x[k] + y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func AddLanes(z, x, y []Lanes) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("fp: AddLanes length mismatch")
	}
	if len(z) == 0 {
		return
	}
	if cpu.IFMA {
		addLanes(&z[0], &x[0], &y[0], len(z))
		return
	}
	for k := range z {
		for l := range LaneCount {
			z[k].lane(l).Add(x[k].lane(l), y[k].lane(l))
		}
	}
}

// laneConst is the IFMA body's constant table, read by lanes_amd64.s: p in
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

// limbs52 cuts x into the IFMA body's 52-bit limbs: limb j is bits
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
