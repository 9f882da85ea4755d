package zkphire

import (
	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/workloads"
)

// Arithmetization selects the gate system a circuit is expressed in. It is
// the hardware models' gate kind, so the estimators take it as is, and its
// value is part of every circuit hash.
type Arithmetization = workloads.GateKind

const (
	// Vanilla is the 3-wire, 5-selector Plonk gate.
	Vanilla = workloads.Vanilla
	// Jellyfish is the 5-wire, 13-selector high-degree custom gate (power-5
	// S-boxes, double-mul, 4-way ECC products) — the arithmetization behind
	// the paper's headline gate-count reductions.
	Jellyfish = workloads.Jellyfish
)

// Wire is a circuit variable handle.
type Wire = gates.Variable

// Builder is the common surface of both gate-system builders, which share
// one implementation of it and differ only in the gate forms they add
// (Jellyfish's Power5, DoubleMulAdd, Power5Round and EccProduct). Obtain one
// with NewBuilder (or the concrete constructors when those forms are needed)
// and pass it to Compile. Values attached to wires form the witness.
type Builder interface {
	// Arithmetization reports which gate system the builder emits.
	Arithmetization() Arithmetization
	// Secret introduces a secret witness value.
	Secret(v uint64) Wire
	// Add emits out = a + b.
	Add(a, b Wire) Wire
	// Mul emits out = a · b.
	Mul(a, b Wire) Wire
	// AddConst emits out = a + k.
	AddConst(a Wire, k uint64) Wire
	// AssertEqualConst constrains a == k.
	AssertEqualConst(a Wire, k uint64)
	// GateCount returns the number of gates emitted so far.
	GateCount() int

	// compile pads the circuit to 2^logGates rows and emits the selector,
	// wire and permutation tables. Unexported: the set of gate systems is
	// closed (the prover's constraint registry knows exactly two).
	compile(logGates int) (*gates.Circuit, error)
}

// NewBuilder returns an empty builder for the requested arithmetization.
// Both implementations flow through the same Compile/NewProver/Prove path.
func NewBuilder(kind Arithmetization) Builder {
	if kind == Jellyfish {
		return NewJellyfishBuilder()
	}
	return NewCircuitBuilder()
}

// gateBuilder is the surface of the internal builders the shared core uses.
type gateBuilder interface {
	NewVariable(v ff.Element) gates.Variable
	Value(v gates.Variable) ff.Element
	Add(a, b gates.Variable) gates.Variable
	Mul(a, b gates.Variable) gates.Variable
	AddConst(a gates.Variable, k ff.Element) gates.Variable
	AssertConst(a gates.Variable, k ff.Element)
	GateCount() int
	Build(numVars int) (*gates.Circuit, error)
}

// builder is the gate-system-independent half of both public builders.
type builder[B gateBuilder] struct {
	b    B
	kind Arithmetization
}

// Arithmetization reports the builder's gate system.
func (c *builder[B]) Arithmetization() Arithmetization { return c.kind }

// Secret introduces a secret witness value.
func (c *builder[B]) Secret(v uint64) Wire { return c.b.NewVariable(ff.NewElement(v)) }

// SecretElement introduces a secret field element.
func (c *builder[B]) SecretElement(v ff.Element) Wire { return c.b.NewVariable(v) }

// Add emits out = a + b.
func (c *builder[B]) Add(a, b Wire) Wire { return c.b.Add(a, b) }

// Mul emits out = a · b.
func (c *builder[B]) Mul(a, b Wire) Wire { return c.b.Mul(a, b) }

// AddConst emits out = a + k.
func (c *builder[B]) AddConst(a Wire, k uint64) Wire { return c.b.AddConst(a, ff.NewElement(k)) }

// AssertEqualConst constrains a == k.
func (c *builder[B]) AssertEqualConst(a Wire, k uint64) { c.b.AssertConst(a, ff.NewElement(k)) }

// AssertEqualElement constrains a == k for a full field element.
func (c *builder[B]) AssertEqualElement(a Wire, k ff.Element) { c.b.AssertConst(a, k) }

// Value returns the witness value currently assigned to a wire.
func (c *builder[B]) Value(a Wire) ff.Element { return c.b.Value(a) }

// GateCount returns the number of gates emitted so far.
func (c *builder[B]) GateCount() int { return c.b.GateCount() }

func (c *builder[B]) compile(logGates int) (*gates.Circuit, error) { return c.b.Build(logGates) }

// CircuitBuilder builds Vanilla-gate circuits with a value-carrying witness.
// It implements Builder.
type CircuitBuilder struct {
	builder[*gates.VanillaBuilder]
}

// NewCircuitBuilder returns an empty Vanilla-gate builder.
func NewCircuitBuilder() *CircuitBuilder {
	return &CircuitBuilder{builder[*gates.VanillaBuilder]{gates.NewVanillaBuilder(), Vanilla}}
}

// JellyfishBuilder builds circuits from high-degree Jellyfish custom gates.
// It implements Builder and additionally exposes the gate forms one
// Jellyfish row can absorb (Power5, DoubleMulAdd, Power5Round, EccProduct).
type JellyfishBuilder struct {
	builder[*gates.JellyfishBuilder]
}

// NewJellyfishBuilder returns an empty Jellyfish-gate builder.
func NewJellyfishBuilder() *JellyfishBuilder {
	return &JellyfishBuilder{builder[*gates.JellyfishBuilder]{gates.NewJellyfishBuilder(), Jellyfish}}
}

// Power5 emits out = a⁵ in a single gate.
func (c *JellyfishBuilder) Power5(a Wire) Wire { return c.b.Power5(a) }

// DoubleMulAdd emits out = a·b + d·e in a single gate.
func (c *JellyfishBuilder) DoubleMulAdd(a, b, d, e Wire) Wire { return c.b.DoubleMulAdd(a, b, d, e) }

// Power5Round emits out = Σᵢ coeffs[i]·ins[i]⁵ + k in a single gate: a full
// Rescue round's S-box layer plus MDS row.
func (c *JellyfishBuilder) Power5Round(ins [4]Wire, coeffs [4]uint64, k uint64) Wire {
	var ce [4]ff.Element
	for i, v := range coeffs {
		ce[i] = ff.NewElement(v)
	}
	return c.b.Power5Round(ins, ce, ff.NewElement(k))
}

// EccProduct emits out = a·b·d·e via the qecc selector.
func (c *JellyfishBuilder) EccProduct(a, b, d, e Wire) Wire { return c.b.EccProduct(a, b, d, e) }

var (
	_ Builder = (*CircuitBuilder)(nil)
	_ Builder = (*JellyfishBuilder)(nil)
)
