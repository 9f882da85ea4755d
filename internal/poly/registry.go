package poly

import (
	"fmt"

	"zkphire/internal/expr"
	"zkphire/internal/ff"
)

// Table I of the paper: the 25 polynomial constraints used to evaluate the
// programmable SumCheck unit. IDs match the paper exactly.
//
//	0      Verifiable ASICs gate
//	1–2    Spartan
//	3–19   Halo2 elliptic-curve constraints
//	20–23  HyperPlonk ZeroCheck/PermCheck (Vanilla and Jellyfish)
//	24     OpenCheck
const NumRegistered = 25

// Registered returns constraint id from Table I. Scalars embedded in the
// constraint (α in the PermChecks) are fixed to a representative value; the
// live protocol rebuilds these composites with real transcript challenges.
func Registered(id int) *Composite {
	alpha := ff.NewElement(2)
	switch id {
	case 0:
		// q_add·(a+b) + q_mul·(a·b)
		e := expr.Sum(
			expr.Prod(expr.V("qadd"), expr.Sum(expr.V("a"), expr.V("b"))),
			expr.Prod(expr.V("qmul"), expr.V("a"), expr.V("b")),
		)
		return FromExpr("VerifiableASICs", 0, e, nil)
	case 1:
		// (A·B − C)·f_τ
		e := expr.Prod(expr.Minus(expr.Prod(expr.V("A"), expr.V("B")), expr.V("C")), expr.V("ftau"))
		return FromExpr("Spartan1", 1, e, map[string]Role{"A": RoleDense, "B": RoleDense, "C": RoleDense})
	case 2:
		// (Sum_ABC)·Z
		e := expr.Prod(expr.V("SumABC"), expr.V("Z"))
		return FromExpr("Spartan2", 2, e, map[string]Role{"SumABC": RoleDense, "Z": RoleDense})
	case 3:
		// q^{non-id}_point·(y² − x³ − 5)
		e := expr.Prod(expr.V("qnonid"), curveEq())
		return FromExpr("NonzeroPointCheck", 3, e, nil)
	case 4:
		// (q_point·x)·(y² − x³ − 5)
		e := expr.Prod(expr.V("qpoint"), expr.V("x"), curveEq())
		return FromExpr("XGatedCurveCheck", 4, e, nil)
	case 5:
		e := expr.Prod(expr.V("qpoint"), expr.V("y"), curveEq())
		return FromExpr("YGatedCurveCheck", 5, e, nil)
	case 6:
		// q_add-incomplete·((x_r + x_q + x_p)·(x_p − x_q)² − (y_p − y_q)²)
		inner := expr.Minus(
			expr.Prod(
				expr.Sum(expr.V("xr"), expr.V("xq"), expr.V("xp")),
				expr.P(expr.Minus(expr.V("xp"), expr.V("xq")), 2),
			),
			expr.P(expr.Minus(expr.V("yp"), expr.V("yq")), 2),
		)
		return FromExpr("IncompleteAdd1", 6, expr.Prod(expr.V("qaddinc"), inner), nil)
	case 7:
		// q_add-incomplete·((y_r + y_q)(x_p − x_q) − (y_p − y_q)(x_q − x_r))
		inner := expr.Minus(
			expr.Prod(expr.Sum(expr.V("yr"), expr.V("yq")), expr.Minus(expr.V("xp"), expr.V("xq"))),
			expr.Prod(expr.Minus(expr.V("yp"), expr.V("yq")), expr.Minus(expr.V("xq"), expr.V("xr"))),
		)
		return FromExpr("IncompleteAdd2", 7, expr.Prod(expr.V("qaddinc"), inner), nil)
	case 8:
		// q_add·(x_q − x_p)·((x_q − x_p)λ − (y_q − y_p))
		inner := expr.Prod(
			expr.Minus(expr.V("xq"), expr.V("xp")),
			expr.Minus(expr.Prod(expr.Minus(expr.V("xq"), expr.V("xp")), expr.V("lambda")), expr.Minus(expr.V("yq"), expr.V("yp"))),
		)
		return FromExpr("CompleteAdd1", 8, expr.Prod(expr.V("qadd"), inner), nil)
	case 9:
		// q_add·(1 − (x_q − x_p)α)·(2 y_p λ − 3 x_p²)
		inner := expr.Prod(
			expr.Minus(expr.C(1), expr.Prod(expr.Minus(expr.V("xq"), expr.V("xp")), expr.V("alpha"))),
			expr.Minus(expr.Prod(expr.C(2), expr.V("yp"), expr.V("lambda")), expr.Prod(expr.C(3), expr.P(expr.V("xp"), 2))),
		)
		return FromExpr("CompleteAdd2", 9, expr.Prod(expr.V("qadd"), inner), nil)
	case 10:
		return completeAddPair(10, "CompleteAdd3", expr.Minus(expr.V("xq"), expr.V("xp")), lambdaSq())
	case 11:
		return completeAddPair(11, "CompleteAdd4", expr.Minus(expr.V("xq"), expr.V("xp")), lambdaLine())
	case 12:
		return completeAddPair(12, "CompleteAdd5", expr.Sum(expr.V("yq"), expr.V("yp")), lambdaSq())
	case 13:
		return completeAddPair(13, "CompleteAdd6", expr.Sum(expr.V("yq"), expr.V("yp")), lambdaLine())
	case 14:
		return gatedDiff(14, "CompleteAdd7", "xp", "beta", "xr", "xq")
	case 15:
		return gatedDiff(15, "CompleteAdd8", "xp", "beta", "yr", "yq")
	case 16:
		return gatedDiff(16, "CompleteAdd9", "xq", "gamma", "xr", "xp")
	case 17:
		return gatedDiff(17, "CompleteAdd10", "xq", "gamma", "yr", "yp")
	case 18:
		return identityGate(18, "CompleteAdd11", "xr")
	case 19:
		return identityGate(19, "CompleteAdd12", "yr")
	case 20:
		return VanillaZeroCheck()
	case 21:
		return VanillaPermCheck(alpha)
	case 22:
		return JellyfishZeroCheck()
	case 23:
		return JellyfishPermCheck(alpha)
	case 24:
		return OpenCheck(6)
	default:
		panic(fmt.Sprintf("poly: unknown Table I id %d", id))
	}
}

// curveEq is y² − x³ − 5 (the Pallas-style curve equation used by Halo2's
// ECC gadget constraints in Table I).
func curveEq() expr.Expr {
	return expr.Sum(
		expr.P(expr.V("y"), 2),
		expr.Neg{Operand: expr.P(expr.V("x"), 3)},
		expr.C(-5),
	)
}

// lambdaSq is λ² − x_p − x_q − x_r.
func lambdaSq() expr.Expr {
	return expr.Sum(
		expr.P(expr.V("lambda"), 2),
		expr.Neg{Operand: expr.V("xp")},
		expr.Neg{Operand: expr.V("xq")},
		expr.Neg{Operand: expr.V("xr")},
	)
}

// lambdaLine is λ(x_p − x_r) − y_p − y_r.
func lambdaLine() expr.Expr {
	return expr.Sum(
		expr.Prod(expr.V("lambda"), expr.Minus(expr.V("xp"), expr.V("xr"))),
		expr.Neg{Operand: expr.V("yp")},
		expr.Neg{Operand: expr.V("yr")},
	)
}

// completeAddPair is q_add·x_p·x_q·sel·tail (Complete Addition 3–6).
func completeAddPair(id int, name string, sel, tail expr.Expr) *Composite {
	e := expr.Prod(expr.V("qadd"), expr.V("xp"), expr.V("xq"), sel, tail)
	return FromExpr(name, id, e, nil)
}

// gatedDiff is q_add·(1 − g·inv)·(a − b) (Complete Addition 7–10).
func gatedDiff(id int, name, g, inv, a, b string) *Composite {
	e := expr.Prod(
		expr.V("qadd"),
		expr.Minus(expr.C(1), expr.Prod(expr.V(g), expr.V(inv))),
		expr.Minus(expr.V(a), expr.V(b)),
	)
	return FromExpr(name, id, e, nil)
}

// identityGate is q_add·(1 − (x_q − x_p)α − (y_q + y_p)δ)·out
// (Complete Addition 11–12).
func identityGate(id int, name, out string) *Composite {
	e := expr.Prod(
		expr.V("qadd"),
		expr.Sum(
			expr.C(1),
			expr.Neg{Operand: expr.Prod(expr.Minus(expr.V("xq"), expr.V("xp")), expr.V("alpha"))},
			expr.Neg{Operand: expr.Prod(expr.Sum(expr.V("yq"), expr.V("yp")), expr.V("delta"))},
		),
		expr.V(out),
	)
	return FromExpr(name, id, e, nil)
}

// VanillaGate is the Plonk Vanilla gate WITHOUT the ZeroCheck eq factor:
// q_L w₁ + q_R w₂ − q_O w₃ + q_M w₁w₂ + q_C.
func VanillaGate() *Composite {
	e := expr.Sum(
		expr.Prod(expr.V("qL"), wire(1)),
		expr.Prod(expr.V("qR"), wire(2)),
		expr.Neg{Operand: expr.Prod(expr.V("qO"), wire(3))},
		expr.Prod(expr.V("qM"), wire(1), wire(2)),
		expr.V("qC"),
	)
	return FromExpr("VanillaGate", -1, e, nil)
}

// VanillaZeroCheck is Table I poly 20: VanillaGate()·f_r.
func VanillaZeroCheck() *Composite {
	c := VanillaGate().MulByEq("fr")
	c.Name, c.ID = "VanillaZeroCheck", 20
	return c
}

// The protocol composites name their constituents by one rule, and every
// binder looks a composite's variables up by these names (Bind): a gate's
// wire column j is WireName(j); a PermCheck's constituents are the four
// product-tree views PermPi, PermP1, PermP2, PermPhi and, per wire j, the
// columns PermDName(j) = w_j + β·σ_j + γ and PermNName(j) = w_j + β·id_j + γ.
const (
	PermPi  = "pi"
	PermP1  = "p1"
	PermP2  = "p2"
	PermPhi = "phi"
)

// WireName names wire column j (1-based) of a gate composite.
func WireName(j int) string { return fmt.Sprintf("w%d", j) }

// PermDName names the PermCheck column D_j (1-based).
func PermDName(j int) string { return fmt.Sprintf("D%d", j) }

// PermNName names the PermCheck column N_j (1-based).
func PermNName(j int) string { return fmt.Sprintf("N%d", j) }

func wire(j int) expr.Expr { return expr.V(WireName(j)) }

// PermCheckVars names a PermCheck's constituents: the four product-tree
// views and the columns D_j = d[j-1], N_j = n[j-1].
func PermCheckVars[T any](pi, p1, p2, phi T, d, n []T) map[string]T {
	vars := map[string]T{PermPi: pi, PermP1: p1, PermP2: p2, PermPhi: phi}
	for j := range d {
		vars[PermDName(j+1)] = d[j]
		vars[PermNName(j+1)] = n[j]
	}
	return vars
}

// Bind returns vars' entry for each of c's variables, in c's variable
// order, or an error naming the first variable vars has no entry for.
func Bind[T any](c *Composite, vars map[string]T) ([]T, error) {
	out := make([]T, len(c.VarNames))
	for i, name := range c.VarNames {
		v, ok := vars[name]
		if !ok {
			return nil, fmt.Errorf("poly: %s: nothing bound to variable %q", c.Name, name)
		}
		out[i] = v
	}
	return out, nil
}

// permCheckCore builds π − p₁p₂ + α(ϕ·D₁…D_k − N₁…N_k) for k wires.
func permCheckCore(id int, name string, k int, alpha ff.Element) *Composite {
	dTerm := []expr.Expr{expr.V(PermPhi)}
	nTerm := []expr.Expr{}
	roles := map[string]Role{PermPi: RoleDense, PermP1: RoleDense, PermP2: RoleDense, PermPhi: RoleDense}
	for j := 1; j <= k; j++ {
		dTerm = append(dTerm, expr.V(PermDName(j)))
		nTerm = append(nTerm, expr.V(PermNName(j)))
		roles[PermDName(j)] = RoleDense
		roles[PermNName(j)] = RoleDense
	}
	e := expr.Sum(
		expr.V(PermPi),
		expr.Neg{Operand: expr.Prod(expr.V(PermP1), expr.V(PermP2))},
		expr.Prod(expr.CE(alpha), expr.Minus(expr.Prod(dTerm...), expr.Prod(nTerm...))),
	)
	return FromExpr(name, id, e, roles)
}

// permCheck is permCheckCore·f_r.
func permCheck(id int, name string, k int, alpha ff.Element) *Composite {
	c := permCheckCore(id, name, k, alpha).MulByEq("fr")
	c.Name = name
	return c
}

// VanillaPermCheck is Table I poly 21 (3 wires).
func VanillaPermCheck(alpha ff.Element) *Composite {
	return permCheck(21, "VanillaPermCheck", 3, alpha)
}

// PermCheckK builds the PermCheck constraint for an arbitrary wire count.
func PermCheckK(k int, alpha ff.Element) *Composite {
	return permCheck(-1, fmt.Sprintf("PermCheck%d", k), k, alpha)
}

// PermCheckCore is PermCheckK without the ZeroCheck eq factor, which the
// ZeroCheck prover and verifier supply themselves.
func PermCheckCore(k int, alpha ff.Element) *Composite {
	return permCheckCore(-1, fmt.Sprintf("PermCheck%d", k), k, alpha)
}

// JellyfishGate is the Jellyfish custom gate WITHOUT the eq factor:
// Σ qᵢwᵢ + q_{M1}w₁w₂ + q_{M2}w₃w₄ + Σ q_{Hi}wᵢ⁵ − q_O w₅ + q_ecc w₁w₂w₃w₄ + q_C.
func JellyfishGate() *Composite {
	terms := []expr.Expr{}
	for i := 1; i <= 4; i++ {
		terms = append(terms, expr.Prod(expr.V(fmt.Sprintf("q%d", i)), wire(i)))
	}
	terms = append(terms,
		expr.Prod(expr.V("qM1"), wire(1), wire(2)),
		expr.Prod(expr.V("qM2"), wire(3), wire(4)),
	)
	for i := 1; i <= 4; i++ {
		terms = append(terms, expr.Prod(expr.V(fmt.Sprintf("qH%d", i)), expr.P(wire(i), 5)))
	}
	terms = append(terms,
		expr.Neg{Operand: expr.Prod(expr.V("qO"), wire(5))},
		expr.Prod(expr.V("qecc"), wire(1), wire(2), wire(3), wire(4)),
		expr.V("qC"),
	)
	return FromExpr("JellyfishGate", -1, expr.Sum(terms...), nil)
}

// JellyfishZeroCheck is Table I poly 22: JellyfishGate()·f_r.
func JellyfishZeroCheck() *Composite {
	c := JellyfishGate().MulByEq("fr")
	c.Name, c.ID = "JellyfishZeroCheck", 22
	return c
}

// JellyfishPermCheck is Table I poly 23 (5 wires).
func JellyfishPermCheck(alpha ff.Element) *Composite {
	return permCheck(23, "JellyfishPermCheck", 5, alpha)
}

// OpenCheck is Table I poly 24: Σ_k y_k·f_{r_k} for k committed polynomials.
func OpenCheck(k int) *Composite {
	terms := make([]expr.Expr, k)
	roles := map[string]Role{}
	for i := 0; i < k; i++ {
		y := fmt.Sprintf("y%d", i+1)
		fr := fmt.Sprintf("fr%d", i+1)
		terms[i] = expr.Prod(expr.V(y), expr.V(fr))
		roles[y] = RoleDense
		roles[fr] = RoleEq
	}
	c := FromExpr("OpenCheck", 24, expr.Sum(terms...), roles)
	return c
}

// HighDegree builds the Figure 7/8/14 sweep family
//
//	f = q₁w₁ + q₂w₂ + q₃·w₁^{d−1}·w₂ + q_c
//
// whose composite degree is d+1 (for d ≥ 2).
func HighDegree(d int) *Composite {
	if d < 2 {
		panic("poly: HighDegree requires d >= 2")
	}
	e := expr.Sum(
		expr.Prod(expr.V("q1"), expr.V("w1")),
		expr.Prod(expr.V("q2"), expr.V("w2")),
		expr.Prod(expr.V("q3"), expr.P(expr.V("w1"), d-1), expr.V("w2")),
		expr.V("qc"),
	)
	c := FromExpr(fmt.Sprintf("HighDegree%d", d), -1, e, nil)
	return c
}

// ProductGate returns A·B·C-style pure product polynomials of given width,
// used in Table II (the A·B·C SumChecks).
func ProductGate(width int) *Composite {
	vars := make([]expr.Expr, width)
	roles := map[string]Role{}
	for i := range vars {
		n := fmt.Sprintf("m%d", i+1)
		vars[i] = expr.V(n)
		roles[n] = RoleDense
	}
	return FromExpr(fmt.Sprintf("Product%d", width), -1, expr.Prod(vars...), roles)
}
