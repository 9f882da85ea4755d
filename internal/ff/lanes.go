package ff

import (
	"math/bits"

	"zkphire/internal/cpu"
)

// Lanes holds eight independent elements; the row functions (MulLanes,
// ScalarMulLanes, AddLanes, SubLanes) run one operation on every lane of a
// whole slice of them per call, bit-identical to Element's Mul, Add and
// Sub. Lanes has two bodies, chosen by cpu.IFMA:
//
//   - the IFMA body (lanes_amd64.s): Lanes[j][l] is bits 52j..52j+51 of
//     lane l's Montgomery limbs, so one zmm register holds one limb of all
//     eight lanes (five limbs; a canonical top limb is below 2^47). The
//     product reduces by 4×52 + 48 bits, so R is 2^256 as for Element;
//   - the portable body, everywhere else (other CPUs and architectures,
//     -tags purego): rows 0–3 hold the eight Elements two to a row (pair);
//     MulLanes calls Element.Mul lane by lane, and AddLanes and SubLanes
//     run Element.Add's and Sub's four-limb arithmetic inline.
//
// PackLanes, PackLanesPairs and UnpackLanes move elements between a slice
// and the body's form. A slice whose length is not a multiple of eight
// fills its last value partly: the lanes past its end pack as zero and
// unpack nowhere. Inputs must be canonical (packed elements below q,
// earlier results, or a LaneConst), and so is every output.

// LaneCount is the number of elements a Lanes value holds.
const LaneCount = 8

// laneLimbs is the number of 52-bit limbs per lane: 5·52 = 260 ≥ 255.
const laneLimbs = 5

// Lanes is LaneCount elements in the form of the body this CPU runs (see
// above). The zero value is eight zeros in either.
type Lanes [laneLimbs][LaneCount]uint64

// pair is lanes 2r and 2r+1 of z in the portable body's form (constant
// offsets: no index arithmetic or bounds check per lane).
func (z *Lanes) pair(r int) (even, odd *Element) {
	return (*Element)(z[r][:Limbs]), (*Element)(z[r][Limbs:])
}

// laneGroups is the number of Lanes values n elements fill.
func laneGroups(n int) int { return (n + LaneCount - 1) / LaneCount }

// LaneConst is one element in every lane in the forms of both bodies, so
// a value built once (a compiled program's constant) serves whichever body
// runs it, also after a test switches bodies.
type LaneConst struct{ ifma, portable [1]Lanes }

// NewLaneConst returns c in every lane.
func NewLaneConst(c *Element) (k LaneConst) {
	for j, limb := range limbs52(c) {
		for l := range LaneCount {
			k.ifma[0][j][l] = limb
		}
	}
	for r := range LaneCount / 2 {
		even, odd := k.portable[0].pair(r)
		*even, *odd = *c, *c
	}
	return k
}

// Row returns k as a one-value row in the form of the body this CPU runs.
func (k *LaneConst) Row() []Lanes {
	if cpu.IFMA {
		return k.ifma[:]
	}
	return k.portable[:]
}

// PackLanes sets lane l of z[k] to x[8k+l], and the lanes past the end of
// x to zero; len(z) must be ⌈len(x)/8⌉.
func PackLanes(z []Lanes, x []Element) {
	if len(z) != laneGroups(len(x)) {
		panic("ff: PackLanes length mismatch")
	}
	n := len(x) / LaneCount
	packWhole(z[:n], x[:LaneCount*n])
	if n < len(z) {
		var pad [LaneCount]Element
		copy(pad[:], x[LaneCount*n:])
		packWhole(z[n:], pad[:])
	}
}

// packWhole is PackLanes for len(x) = 8·len(z).
func packWhole(z []Lanes, x []Element) {
	if !cpu.IFMA {
		for k := range z {
			for r := range LaneCount / 2 {
				even, odd := z[k].pair(r)
				*even, *odd = x[LaneCount*k+2*r], x[LaneCount*k+2*r+1]
			}
		}
	} else if len(z) > 0 {
		packLanes(&z[0], &x[0], len(z))
	}
}

// PackLanesPairs splits a table of (even, odd) pairs into two rows: lane l
// of even[k] is x[2(8k+l)] and lane l of odd[k] is x[2(8k+l)+1], and the
// lanes past the last pair are zero. len(x) must be even, len(even)
// ⌈len(x)/16⌉, and len(odd) = len(even).
func PackLanesPairs(even, odd []Lanes, x []Element) {
	if len(x)%2 != 0 || len(even) != laneGroups(len(x)/2) || len(odd) != len(even) {
		panic("ff: PackLanesPairs length mismatch")
	}
	n := len(x) / (2 * LaneCount)
	packPairsWhole(even[:n], odd[:n], x[:2*LaneCount*n])
	if n < len(even) {
		var pad [2 * LaneCount]Element
		copy(pad[:], x[2*LaneCount*n:])
		packPairsWhole(even[n:], odd[n:], pad[:])
	}
}

// packPairsWhole is PackLanesPairs for len(x) = 16·len(even).
func packPairsWhole(even, odd []Lanes, x []Element) {
	if !cpu.IFMA {
		for k := range even {
			for r := range LaneCount / 2 {
				e0, e1 := even[k].pair(r)
				o0, o1 := odd[k].pair(r)
				i := 2 * (LaneCount*k + 2*r)
				*e0, *o0, *e1, *o1 = x[i], x[i+1], x[i+2], x[i+3]
			}
		}
	} else if len(even) > 0 {
		packLanesPairs(&even[0], &odd[0], &x[0], len(even))
	}
}

// UnpackLanes sets x[8k+l] to lane l of z[k] for every index of x, so the
// lanes past the end of x are dropped; len(z) must be ⌈len(x)/8⌉.
func UnpackLanes(x []Element, z []Lanes) {
	if len(z) != laneGroups(len(x)) {
		panic("ff: UnpackLanes length mismatch")
	}
	n := len(x) / LaneCount
	unpackWhole(x[:LaneCount*n], z[:n])
	if n < len(z) {
		var pad [LaneCount]Element
		unpackWhole(pad[:], z[n:])
		copy(x[LaneCount*n:], pad[:])
	}
}

// unpackWhole is UnpackLanes for len(x) = 8·len(z).
func unpackWhole(x []Element, z []Lanes) {
	if !cpu.IFMA {
		for k := range z {
			for r := range LaneCount / 2 {
				even, odd := z[k].pair(r)
				x[LaneCount*k+2*r], x[LaneCount*k+2*r+1] = *even, *odd
			}
		}
	} else if len(z) > 0 {
		unpackLanes(&x[0], &z[0], len(z))
	}
}

// MulLanes sets z[k] = x[k]·y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func MulLanes(z, x, y []Lanes) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: MulLanes length mismatch")
	}
	if !cpu.IFMA {
		mulRows(z, x, y, 1)
	} else if len(z) > 0 {
		mulLanes(&z[0], &x[0], &y[0], len(z), laneBytes)
	}
}

// ScalarMulLanes sets z[k] = x[k]·c[0] lane-wise, for c a one-value row
// holding one element in every lane (LaneConst.Row). z may alias x (index
// for index). It panics if lengths differ.
func ScalarMulLanes(z, x, c []Lanes) {
	if len(x) != len(z) || len(c) != 1 {
		panic("ff: ScalarMulLanes length mismatch")
	}
	if !cpu.IFMA {
		mulRows(z, x, c, 0)
	} else if len(z) > 0 {
		mulLanes(&z[0], &x[0], &c[0], len(z), 0)
	}
}

// AddLanes sets z[k] = x[k] + y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func AddLanes(z, x, y []Lanes) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: AddLanes length mismatch")
	}
	if !cpu.IFMA {
		addRows(z, x, y)
	} else if len(z) > 0 {
		addLanes(&z[0], &x[0], &y[0], len(z))
	}
}

// SubLanes sets z[k] = x[k] − y[k] lane-wise. z may alias x or y (index for
// index). It panics if lengths differ.
func SubLanes(z, x, y []Lanes) {
	if len(x) != len(z) || len(y) != len(z) {
		panic("ff: SubLanes length mismatch")
	}
	if !cpu.IFMA {
		subRows(z, x, y)
	} else if len(z) > 0 {
		subLanes(&z[0], &x[0], &y[0], len(z))
	}
}

// mulRows is MulLanes' and ScalarMulLanes' portable body: lane l of z[k]
// becomes lane l of x[k] times lane l of y[k·yStep].
func mulRows(z, x, y []Lanes, yStep int) {
	for k := range z {
		for r := range LaneCount / 2 {
			z0, z1 := z[k].pair(r)
			x0, x1 := x[k].pair(r)
			y0, y1 := y[k*yStep].pair(r)
			z0.Mul(x0, y0)
			z1.Mul(x1, y1)
		}
	}
}

// addRows is AddLanes' portable body: Element.Add on every lane, written
// out because Element.Add is too large to inline. It subtracts q from
// x + y and adds q back under a mask where that borrows, so no branch
// depends on the data (x + y ≥ q in half the lanes of random inputs).
// Both elements of a pair row are written out in one iteration: looping
// over them, or over single lanes, measured 15–30% slower per element.
func addRows(z, x, y []Lanes) {
	x, y = x[:len(z)], y[:len(z)]
	for i := range LaneCount / 2 * len(z) {
		k, r := i/(LaneCount/2), i%(LaneCount/2)
		zr, xr, yr := &z[k][r], &x[k][r], &y[k][r]
		t0, c := bits.Add64(xr[0], yr[0], 0)
		t1, c := bits.Add64(xr[1], yr[1], c)
		t2, c := bits.Add64(xr[2], yr[2], c)
		t3, _ := bits.Add64(xr[3], yr[3], c)
		t0, c = bits.Sub64(t0, qc0, 0)
		t1, c = bits.Sub64(t1, qc1, c)
		t2, c = bits.Sub64(t2, qc2, c)
		t3, c = bits.Sub64(t3, qc3, c)
		m := -c // all ones where x + y < q: add q back
		t0, c = bits.Add64(t0, qc0&m, 0)
		t1, c = bits.Add64(t1, qc1&m, c)
		t2, c = bits.Add64(t2, qc2&m, c)
		t3, _ = bits.Add64(t3, qc3&m, c)
		zr[0], zr[1], zr[2], zr[3] = t0, t1, t2, t3
		t0, c = bits.Add64(xr[4], yr[4], 0)
		t1, c = bits.Add64(xr[5], yr[5], c)
		t2, c = bits.Add64(xr[6], yr[6], c)
		t3, _ = bits.Add64(xr[7], yr[7], c)
		t0, c = bits.Sub64(t0, qc0, 0)
		t1, c = bits.Sub64(t1, qc1, c)
		t2, c = bits.Sub64(t2, qc2, c)
		t3, c = bits.Sub64(t3, qc3, c)
		m = -c
		t0, c = bits.Add64(t0, qc0&m, 0)
		t1, c = bits.Add64(t1, qc1&m, c)
		t2, c = bits.Add64(t2, qc2&m, c)
		t3, _ = bits.Add64(t3, qc3&m, c)
		zr[4], zr[5], zr[6], zr[7] = t0, t1, t2, t3
	}
}

// subRows is SubLanes' portable body: Element.Sub on every lane, written
// out as addRows is, with q added back under the mask of the borrow.
func subRows(z, x, y []Lanes) {
	x, y = x[:len(z)], y[:len(z)]
	for i := range LaneCount / 2 * len(z) {
		k, r := i/(LaneCount/2), i%(LaneCount/2)
		zr, xr, yr := &z[k][r], &x[k][r], &y[k][r]
		t0, c := bits.Sub64(xr[0], yr[0], 0)
		t1, c := bits.Sub64(xr[1], yr[1], c)
		t2, c := bits.Sub64(xr[2], yr[2], c)
		t3, c := bits.Sub64(xr[3], yr[3], c)
		m := -c // all ones where x < y: add q back
		t0, c = bits.Add64(t0, qc0&m, 0)
		t1, c = bits.Add64(t1, qc1&m, c)
		t2, c = bits.Add64(t2, qc2&m, c)
		t3, _ = bits.Add64(t3, qc3&m, c)
		zr[0], zr[1], zr[2], zr[3] = t0, t1, t2, t3
		t0, c = bits.Sub64(xr[4], yr[4], 0)
		t1, c = bits.Sub64(xr[5], yr[5], c)
		t2, c = bits.Sub64(xr[6], yr[6], c)
		t3, c = bits.Sub64(xr[7], yr[7], c)
		m = -c
		t0, c = bits.Add64(t0, qc0&m, 0)
		t1, c = bits.Add64(t1, qc1&m, c)
		t2, c = bits.Add64(t2, qc2&m, c)
		t3, _ = bits.Add64(t3, qc3&m, c)
		zr[4], zr[5], zr[6], zr[7] = t0, t1, t2, t3
	}
}

// laneBytes is the size of a Lanes value: mulLanes' step through a row of
// multipliers.
const laneBytes = laneLimbs * LaneCount * 8

// laneConst is the IFMA body's constant table, read by lanes_amd64.s: q in
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
