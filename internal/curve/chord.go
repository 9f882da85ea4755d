package curve

import "zkphire/internal/fp"

// chordAdder completes a batch of affine additions whose slopes are
// queued as fractions; addChords, addChordsScalar and addChordsLanes are
// its implementations.
type chordAdder func(num, den, x1, y1, x2, scratch []fp.Element)

// addChords is the batch-affine addition under the MSM's bucket flush and
// fixed-base setup: for every i it replaces (x1[i], y1[i]) by its sum with
// the point of x-coordinate x2[i] on the line of slope λ = num[i]/den[i]
// through it (a chord, or the tangent for a doubling):
//
//	x3 = λ² − x1 − x2,  y3 = λ·(x1 − x3) − y1.
//
// Every den[i] must be nonzero; den is overwritten, and scratch (len ≥
// len(den)) is batchInvertFp's prefix buffer. On a CPU with the fp.Lanes
// kernel the batch runs eight additions at a time (addChordsLanes);
// elsewhere it is addChordsScalar. Both give the same bits.
func addChords(num, den, x1, y1, x2, scratch []fp.Element) {
	if fp.HasLanes() {
		addChordsLanes(num, den, x1, y1, x2, scratch)
		return
	}
	addChordsScalar(num, den, x1, y1, x2, scratch)
}

// addChordsScalar is addChords one fp.Mul at a time, after one
// batchInvertFp over den.
func addChordsScalar(num, den, x1, y1, x2, scratch []fp.Element) {
	batchInvertFp(den, scratch)
	var lambda, x3, y3 fp.Element
	for i := range den {
		lambda.Mul(&num[i], &den[i])
		x3.Square(&lambda)
		x3.Sub(&x3, &x1[i])
		x3.Sub(&x3, &x2[i])
		y3.Sub(&x1[i], &x3)
		y3.Mul(&y3, &lambda)
		y3.Sub(&y3, &y1[i])
		x1[i], y1[i] = x3, y3
	}
}

// addChordsLanes is addChords on the fp.Lanes kernel. Entry i sits in lane
// i mod 8 of group i/8, so batchInvertFp's prefix chain runs as eight
// interleaved chains, one per lane; the eight chain products share one
// inversion (a batchInvertFp of eight), and the backward pass forms 1/den,
// λ, x3 and y3 for a whole group at once. The prefix products are staged
// in scratch, unpacked; den is left as it was. A short last group is
// padded with den = 1 and its padding discarded.
func addChordsLanes(num, den, x1, y1, x2, scratch []fp.Element) {
	groups := (len(den) + fp.LaneCount - 1) / fp.LaneCount
	if groups == 0 {
		return
	}
	one, zero := fp.One(), fp.Zero()
	var acc, d, inv, lambda, s, t, x3 fp.Lanes
	var chains, tmp [fp.LaneCount]fp.Element
	for l := range chains {
		chains[l] = one
	}
	acc.Pack(&chains)
	// A short last group's padding lanes need no prefix: their slots in
	// the chains multiply by 1, and their results are dropped.
	prefix := scratch[:len(den)]
	for g := range groups {
		unpackGroup(&acc, prefix, g)
		packGroup(&d, den, g, &one)
		acc.Mul(&acc, &d)
	}
	acc.Unpack(&chains)
	batchInvertFp(chains[:], tmp[:])
	for l := range chains {
		if chains[l].IsZero() {
			panic("curve: zero slope denominator")
		}
	}
	inv.Pack(&chains)

	for g := groups - 1; g >= 0; g-- {
		packGroup(&d, den, g, &one)
		packGroup(&t, prefix, g, &one)
		lambda.Mul(&inv, &t) // 1/den
		inv.Mul(&inv, &d)
		packGroup(&t, num, g, &zero)
		lambda.Mul(&lambda, &t)
		packGroup(&t, x1, g, &zero)
		packGroup(&s, x2, g, &zero)
		s.Add(&t, &s)
		x3.Mul(&lambda, &lambda)
		x3.Sub(&x3, &s)
		t.Sub(&t, &x3)
		t.Mul(&t, &lambda)
		packGroup(&s, y1, g, &zero)
		t.Sub(&t, &s)
		unpackGroup(&x3, x1, g)
		unpackGroup(&t, y1, g)
	}
}

// packGroup packs entries 8g..8g+7 of s into z, padding past the end of s
// with pad.
func packGroup(z *fp.Lanes, s []fp.Element, g int, pad *fp.Element) {
	lo := g * fp.LaneCount
	if lo+fp.LaneCount <= len(s) {
		z.Pack((*[fp.LaneCount]fp.Element)(s[lo:]))
		return
	}
	var buf [fp.LaneCount]fp.Element
	for i := copy(buf[:], s[lo:]); i < len(buf); i++ {
		buf[i] = *pad
	}
	z.Pack(&buf)
}

// unpackGroup writes z's lanes to entries 8g..8g+7 of s, dropping those
// past its end.
func unpackGroup(z *fp.Lanes, s []fp.Element, g int) {
	lo := g * fp.LaneCount
	if lo+fp.LaneCount <= len(s) {
		z.Unpack((*[fp.LaneCount]fp.Element)(s[lo:]))
		return
	}
	var buf [fp.LaneCount]fp.Element
	z.Unpack(&buf)
	copy(s[lo:], buf[:])
}
