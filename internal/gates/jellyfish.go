package gates

import (
	"zkphire/internal/ff"
	"zkphire/internal/poly"
)

// Jellyfish selector columns, in the row order NewJellyfishBuilder lists.
const (
	jLin = 0 // q1..q4: wᵢ
	jM1  = 4 // w1·w2
	jM2  = 5 // w3·w4
	jPow = 6 // qH1..qH4: wᵢ⁵
	jOut = 10
	jEcc = 11 // w1·w2·w3·w4
	jK   = 12
)

// JellyfishBuilder assembles circuits from Jellyfish custom gates
// (HyperPlonk's high-degree gate: 5 wires, power-5 hash terms, a 4-way ECC
// product and two multiplication terms per gate). One Jellyfish gate absorbs
// what would take several Vanilla gates — the table-size reduction the
// paper's Figure 13 and Tables VII–VIII quantify.
type JellyfishBuilder struct{ rowStore }

// NewJellyfishBuilder returns an empty builder.
func NewJellyfishBuilder() *JellyfishBuilder {
	return &JellyfishBuilder{rowStore{
		selectors: []string{"q1", "q2", "q3", "q4", "qM1", "qM2", "qH1", "qH2", "qH3", "qH4", "qO", "qecc", "qC"},
		wires:     5,
		gate:      poly.JellyfishGate,
	}}
}

// LinearCombination emits out = Σ coeffs[i]·ins[i] + k (up to 4 inputs).
func (b *JellyfishBuilder) LinearCombination(ins []Variable, coeffs []ff.Element, k ff.Element) Variable {
	if len(ins) == 0 || len(ins) > 4 || len(ins) != len(coeffs) {
		panic("gates: linear combination takes 1..4 inputs")
	}
	acc := k
	for i := range ins {
		var t ff.Element
		t.Mul(&coeffs[i], &b.values[ins[i]])
		acc.Add(&acc, &t)
	}
	out, q := b.output(acc, ins...)
	copy(q[jLin:], coeffs)
	q[jOut], q[jK] = one, k
	return out
}

// Add emits out = a + c.
func (b *JellyfishBuilder) Add(a, c Variable) Variable {
	return b.LinearCombination([]Variable{a, c}, []ff.Element{one, one}, ff.Zero())
}

// AddConst emits out = a + k.
func (b *JellyfishBuilder) AddConst(a Variable, k ff.Element) Variable {
	return b.LinearCombination([]Variable{a}, []ff.Element{one}, k)
}

// Mul emits out = a · c using the qM1 term.
func (b *JellyfishBuilder) Mul(a, c Variable) Variable {
	var prod ff.Element
	prod.Mul(&b.values[a], &b.values[c])
	out, q := b.output(prod, a, c)
	q[jM1], q[jOut] = one, one
	return out
}

// DoubleMulAdd emits out = a·b + c·d in a single gate (qM1 + qM2).
func (b *JellyfishBuilder) DoubleMulAdd(a, c, d, e Variable) Variable {
	var p1, p2 ff.Element
	p1.Mul(&b.values[a], &b.values[c])
	p2.Mul(&b.values[d], &b.values[e])
	p1.Add(&p1, &p2)
	out, q := b.output(p1, a, c, d, e)
	q[jM1], q[jM2], q[jOut] = one, one, one
	return out
}

// Power5 emits out = a⁵ — the Rescue/Poseidon S-box absorbed by one gate.
func (b *JellyfishBuilder) Power5(a Variable) Variable {
	var v ff.Element
	v.ExpUint64(&b.values[a], 5)
	out, q := b.output(v, a)
	q[jPow], q[jOut] = one, one
	return out
}

// Power5Round emits out = Σᵢ cᵢ·aᵢ⁵ + k: a full Rescue round's S-box layer
// plus MDS row in one gate.
func (b *JellyfishBuilder) Power5Round(ins [4]Variable, coeffs [4]ff.Element, k ff.Element) Variable {
	acc := k
	for i := 0; i < 4; i++ {
		var t ff.Element
		t.ExpUint64(&b.values[ins[i]], 5)
		t.Mul(&t, &coeffs[i])
		acc.Add(&acc, &t)
	}
	out, q := b.output(acc, ins[:]...)
	copy(q[jPow:], coeffs[:])
	q[jOut], q[jK] = one, k
	return out
}

// EccProduct emits out = a·b·c·d via the qecc selector.
func (b *JellyfishBuilder) EccProduct(a, c, d, e Variable) Variable {
	prod := b.values[a]
	prod.Mul(&prod, &b.values[c])
	prod.Mul(&prod, &b.values[d])
	prod.Mul(&prod, &b.values[e])
	out, q := b.output(prod, a, c, d, e)
	q[jEcc], q[jOut] = one, one
	return out
}

// AssertConst constrains a == k.
func (b *JellyfishBuilder) AssertConst(a Variable, k ff.Element) {
	q := b.row(-1, a)
	q[jLin] = one
	q[jK].Neg(&k)
}
