// Package gates provides circuit builders for the two HyperPlonk
// arithmetizations the paper evaluates: Vanilla Plonk gates (3 wires, 5
// selectors) and Jellyfish custom gates (5 wires, 13 selectors, power-5 hash
// terms and a 4-way ECC product). Both share one row store, whose Build
// tracks copy constraints through variables and emits the selector/wire MLEs
// plus the wiring permutation that the HyperPlonk prover consumes.
package gates

import (
	"fmt"
	"maps"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
)

// Variable is a handle to a circuit value.
type Variable int

// Circuit is the compiled output of a builder.
type Circuit struct {
	NumVars   int
	GateCount int // real (unpadded) gates
	// Selectors maps selector name (matching poly registry variable names)
	// to its MLE.
	Selectors map[string]*mle.Table
	// Wires holds the wire-column MLEs (3 for Vanilla, 5 for Jellyfish).
	Wires []*mle.Table
	// Perm is the copy-constraint permutation over len(Wires) columns.
	Perm *perm.Permutation
	// Gate is the composite constraint (without the ZeroCheck eq factor).
	Gate *poly.Composite
}

// GateTables returns the tables bound to the gate composite's variables, in
// its variable order: each selector under its name, wire column j under
// poly.WireName(j).
func (c *Circuit) GateTables() ([]*mle.Table, error) {
	vars := make(map[string]*mle.Table, len(c.Selectors)+len(c.Wires))
	maps.Copy(vars, c.Selectors)
	for j, w := range c.Wires {
		vars[poly.WireName(j+1)] = w
	}
	return poly.Bind(c.Gate, vars)
}

// Satisfied reports whether every gate constraint holds for the embedded
// witness (diagnostic; the prover proves this via ZeroCheck).
func (c *Circuit) Satisfied() bool {
	tabs, err := c.GateTables()
	if err != nil {
		panic(err)
	}
	assign := make([]ff.Element, len(tabs))
	for x := 0; x < 1<<uint(c.NumVars); x++ {
		for i, t := range tabs {
			assign[i] = t.Evals[x]
		}
		if v := c.Gate.Evaluate(assign); !v.IsZero() {
			return false
		}
	}
	return true
}

// CopySatisfied reports whether wire values respect every copy constraint.
func (c *Circuit) CopySatisfied() bool {
	n := 1 << uint(c.NumVars)
	for j, col := range c.Perm.Sigma {
		for x, tgt := range col {
			a := c.Wires[j].Evals[x]
			b := c.Wires[tgt/n].Evals[tgt%n]
			if !a.Equal(&b) {
				return false
			}
		}
	}
	return true
}

var one = ff.One()

// rowStore is the state both builders share: a gate system's row layout (its
// selector columns in row order, wire count and gate composite), the witness
// values, and each gate's selector values and wire slots, flat by row.
type rowStore struct {
	selectors []string
	wires     int
	gate      func() *poly.Composite
	values    []ff.Element
	sel       []ff.Element // len(selectors) per gate
	slots     []Variable   // wires per gate; -1 marks an unused slot
}

// NewVariable introduces a witness value.
func (s *rowStore) NewVariable(v ff.Element) Variable {
	s.values = append(s.values, v)
	return Variable(len(s.values) - 1)
}

// Value returns the assigned value of a variable.
func (s *rowStore) Value(v Variable) ff.Element { return s.values[v] }

// GateCount returns the number of gates emitted so far.
func (s *rowStore) GateCount() int { return len(s.slots) / s.wires }

// row appends a gate wired to ins from the first column on and to out in
// the last (-1 leaves a slot unused), and returns its selector values, all
// zero, for the caller to set.
func (s *rowStore) row(out Variable, ins ...Variable) []ff.Element {
	s.slots = append(s.slots, ins...)
	for i := len(ins); i < s.wires-1; i++ {
		s.slots = append(s.slots, -1)
	}
	s.slots = append(s.slots, out)
	n := len(s.sel)
	s.sel = append(s.sel, make([]ff.Element, len(s.selectors))...)
	return s.sel[n:]
}

// output is row for a gate whose output is a new variable of value v.
func (s *rowStore) output(v ff.Element, ins ...Variable) (Variable, []ff.Element) {
	out := s.NewVariable(v)
	return out, s.row(out, ins...)
}

// Build compiles the circuit, padding to 2^numVars rows with no-op gates.
// Each variable's wire slots, in row then column order, form one copy cycle.
func (s *rowStore) Build(numVars int) (*Circuit, error) {
	n, k, ns, rows := 1<<uint(numVars), s.wires, len(s.selectors), s.GateCount()
	if rows > n {
		return nil, fmt.Errorf("gates: %d gates exceed capacity 2^%d", rows, numVars)
	}
	c := &Circuit{
		NumVars:   numVars,
		GateCount: rows,
		Selectors: make(map[string]*mle.Table, ns),
		Wires:     make([]*mle.Table, k),
		Perm:      perm.Identity(k, n),
		Gate:      s.gate(),
	}
	for j, name := range s.selectors {
		t := mle.New(numVars)
		for i := range rows {
			t.Evals[i] = s.sel[i*ns+j]
		}
		c.Selectors[name] = t
	}
	for col := range c.Wires {
		c.Wires[col] = mle.New(numVars)
	}
	uses := make([][]int, len(s.values))
	for i := range rows {
		for col, v := range s.slots[i*k : (i+1)*k] {
			if v >= 0 {
				c.Wires[col].Evals[i] = s.values[v]
				uses[v] = append(uses[v], col*n+i)
			}
		}
	}
	for _, cycle := range uses {
		c.Perm.AddCycle(cycle)
	}
	if err := c.Perm.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Vanilla selector columns, in row order.
const (
	qL = iota
	qR
	qO
	qM
	qC
)

// VanillaBuilder assembles circuits from Vanilla Plonk gates
// q_L·w₁ + q_R·w₂ − q_O·w₃ + q_M·w₁w₂ + q_C = 0.
type VanillaBuilder struct{ rowStore }

// NewVanillaBuilder returns an empty builder.
func NewVanillaBuilder() *VanillaBuilder {
	return &VanillaBuilder{rowStore{
		selectors: []string{"qL", "qR", "qO", "qM", "qC"},
		wires:     3,
		gate:      poly.VanillaGate,
	}}
}

// Add emits an addition gate: out = a + b.
func (b *VanillaBuilder) Add(a, c Variable) Variable {
	var sum ff.Element
	sum.Add(&b.values[a], &b.values[c])
	out, q := b.output(sum, a, c)
	q[qL], q[qR], q[qO] = one, one, one
	return out
}

// Mul emits a multiplication gate: out = a · b.
func (b *VanillaBuilder) Mul(a, c Variable) Variable {
	var prod ff.Element
	prod.Mul(&b.values[a], &b.values[c])
	out, q := b.output(prod, a, c)
	q[qM], q[qO] = one, one
	return out
}

// AddConst emits out = a + k.
func (b *VanillaBuilder) AddConst(a Variable, k ff.Element) Variable {
	var sum ff.Element
	sum.Add(&b.values[a], &k)
	out, q := b.output(sum, a)
	q[qL], q[qO], q[qC] = one, one, k
	return out
}

// ScaleConst emits out = k·a (a single gate with qL = k).
func (b *VanillaBuilder) ScaleConst(a Variable, k ff.Element) Variable {
	var v ff.Element
	v.Mul(&k, &b.values[a])
	out, q := b.output(v, a)
	q[qL], q[qO] = k, one
	return out
}

// AssertConst constrains a == k with a gate qL·a − k = 0.
func (b *VanillaBuilder) AssertConst(a Variable, k ff.Element) {
	q := b.row(-1, a)
	q[qL] = one
	q[qC].Neg(&k)
}

// AssertEqual constrains a == b with the gate a − b = 0 (qL = 1, qR = −1).
func (b *VanillaBuilder) AssertEqual(a, c Variable) {
	q := b.row(-1, a, c)
	q[qL] = one
	q[qR].Neg(&one)
}
