package ff

// This file implements the slice kernels of the scalar field that are not
// single Lanes row operations: FoldVec (the MLE fold, on the Lanes rows)
// and BatchInvertScratch.

// FoldVec writes the r-fold of src (length 2m) into dst (length m):
//
//	dst[j] = src[2j] + r·(src[2j+1] − src[2j])
//
// on the Lanes rows, up to foldGroups·8 pairs per pass. dst may alias the
// first half of src (the in-place MLE fold): a pass reads all its pairs
// before it writes its entries, which lie below its first pair or inside
// its own pairs.
func FoldVec(dst, src []Element, r *Element) {
	if len(src) != 2*len(dst) {
		panic("ff: fold length mismatch")
	}
	rl := NewLaneConst(r)
	var a0, a1 [foldGroups]Lanes
	for j := 0; j < len(dst); j += foldGroups * LaneCount {
		m := min(foldGroups*LaneCount, len(dst)-j)
		x0, x1 := a0[:laneGroups(m)], a1[:laneGroups(m)]
		PackLanesPairs(x0, x1, src[2*j:2*(j+m)])
		SubLanes(x1, x1, x0)
		ScalarMulLanes(x1, x1, rl.Row())
		AddLanes(x1, x1, x0)
		UnpackLanes(dst[j:j+m], x1)
	}
}

// foldGroups is how many Lanes values FoldVec packs per pass.
const foldGroups = 8

// BatchInvertScratch is BatchInvert with a caller-provided prefix buffer
// (len(scratch) >= len(a)), so hot loops — the permutation argument inverts
// one chunk per worker — can run batched inversion without allocating.
func BatchInvertScratch(a, scratch []Element) {
	n := len(a)
	if n == 0 {
		return
	}
	if len(scratch) < n {
		panic("ff: batch invert scratch too small")
	}
	prefix := scratch[:n]
	acc := one
	for i := 0; i < n; i++ {
		prefix[i] = acc
		if !a[i].IsZero() {
			acc.Mul(&acc, &a[i])
		}
	}
	var inv Element
	inv.Inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if a[i].IsZero() {
			continue
		}
		var ai Element
		ai.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &a[i])
		a[i] = ai
	}
}
