package ff

// Univariate helpers for SumCheck round polynomials. A round polynomial of
// degree d is represented by its evaluations at the integer points
// 0, 1, ..., d, exactly the values the hardware's extension engines produce.

// EvalFromPoints evaluates, at x, the unique degree-(len(evals)-1) univariate
// polynomial whose value at i is evals[i], using Lagrange interpolation on
// the integer nodes 0..d.
//
//	L_i(x) = Π_{j≠i} (x - j) / (i - j)
func EvalFromPoints(evals []Element, x *Element) Element {
	d := len(evals) - 1
	if d < 0 {
		return Zero()
	}
	if d == 0 {
		return evals[0]
	}

	// If x is one of the nodes, return directly (avoids zero denominators in
	// the barycentric-style product below).
	for i := 0; i <= d; i++ {
		var node Element
		node.SetUint64(uint64(i))
		if node.Equal(x) {
			return evals[i]
		}
	}

	// prod = Π_{j=0..d} (x - j)
	diffs := make([]Element, d+1)
	prod := One()
	for j := 0; j <= d; j++ {
		var node Element
		node.SetUint64(uint64(j))
		diffs[j].Sub(x, &node)
		prod.Mul(&prod, &diffs[j])
	}

	// denominators: i! * (d-i)! * (-1)^{d-i}
	inv := make([]Element, d+1)
	fact := factorials(d)
	for i := 0; i <= d; i++ {
		var den Element
		den.Mul(&fact[i], &fact[d-i])
		if (d-i)%2 == 1 {
			den.Neg(&den)
		}
		inv[i].Mul(&den, &diffs[i])
	}
	BatchInvert(inv)

	var res, term Element
	for i := 0; i <= d; i++ {
		term.Mul(&evals[i], &prod)
		term.Mul(&term, &inv[i])
		res.Add(&res, &term)
	}
	return res
}

func factorials(d int) []Element {
	out := make([]Element, d+1)
	out[0] = One()
	for i := 1; i <= d; i++ {
		var iE Element
		iE.SetUint64(uint64(i))
		out[i].Mul(&out[i-1], &iE)
	}
	return out
}
