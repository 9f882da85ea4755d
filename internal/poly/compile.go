package poly

import (
	"fmt"
	"sync/atomic"

	"zkphire/internal/ff"
)

// This file compiles a Composite's expression DAG into a straight-line
// evaluation program once, so the SumCheck scan — which evaluates the
// composite at every hypercube point for every extension point t — runs a
// flat op list over a register file instead of walking terms, factors, and
// power loops per point. Compilation hoists the power chains: if several
// terms share w1², it is squared once per point, not once per term; powers
// are built by square-and-multiply; coefficient multiplications are emitted
// only for coefficients ≠ 1.
//
// Register layout: registers [0, NumInputs) are the per-point values of the
// constituent MLEs, in VarNames order — the caller loads them and the
// program never writes them. Registers [NumInputs, NumRegs) hold hoisted
// powers and one term scratch slot. The evaluation result is a separate
// accumulator, so a program evaluation is a pure function of the input
// registers. The program runs over a block of points at once (EvalBlock):
// every register is a row of BlockWidth values, one per point.

// OpKind discriminates the compiled instruction set.
type OpKind uint8

const (
	// OpMul: R[Dst] = R[A]·R[B].
	OpMul OpKind = iota
	// OpSquare: R[Dst] = R[A]².
	OpSquare
	// OpMulConst: R[Dst] = R[A]·Consts[B].
	OpMulConst
	// OpAcc: acc += R[A].
	OpAcc
	// OpAccConst: acc += Consts[B] (a constant term).
	OpAccConst
)

// Op is one straight-line instruction. A and B index registers (or Consts
// for the B of OpMulConst); Dst is always a scratch register.
type Op struct {
	Kind   OpKind
	Dst, A uint16
	B      uint16
}

// Program is a compiled composite evaluator.
type Program struct {
	// NumInputs is the number of constituent MLEs (register file prefix).
	NumInputs int
	// NumRegs is the total register count the evaluator needs.
	NumRegs int
	// Consts holds term coefficients referenced by OpMulConst/OpAccConst.
	Consts []ff.Element
	// Ops is the instruction list, executed in order.
	Ops []Op
}

// Compile lowers the composite into a straight-line program. The result is
// cached on the composite (composites are shared read-only across prover
// goroutines; the cache is an atomic pointer, and a benign double-compile
// produces identical programs).
func (c *Composite) Compile() *Program {
	if p := c.prog.Load(); p != nil {
		return p
	}
	p := compile(c)
	c.prog.Store(p)
	return p
}

// prog backs Compile's cache; it lives on Composite (see poly.go).

func compile(c *Composite) *Program {
	nv := len(c.VarNames)
	p := &Program{NumInputs: nv}

	// Highest power needed per variable across all terms.
	maxPow := make([]int, nv)
	for _, t := range c.Terms {
		for _, f := range t.Factors {
			if f.Power > maxPow[f.Var] {
				maxPow[f.Var] = f.Power
			}
		}
	}

	// Allocate registers for powers 2..maxPow of each variable and emit the
	// chains (square for even powers, multiply-by-base for odd).
	next := uint16(nv)
	powReg := make(map[[2]int]uint16, nv)
	regOf := func(v, pow int) uint16 {
		if pow == 1 {
			return uint16(v)
		}
		return powReg[[2]int{v, pow}]
	}
	for v := 0; v < nv; v++ {
		for pow := 2; pow <= maxPow[v]; pow++ {
			dst := next
			next++
			powReg[[2]int{v, pow}] = dst
			if pow%2 == 0 {
				p.Ops = append(p.Ops, Op{Kind: OpSquare, Dst: dst, A: regOf(v, pow/2)})
			} else {
				p.Ops = append(p.Ops, Op{Kind: OpMul, Dst: dst, A: regOf(v, pow-1), B: uint16(v)})
			}
		}
	}
	tmp := next
	next++
	p.NumRegs = int(next)

	constIdx := func(e ff.Element) uint16 {
		for i := range p.Consts {
			if p.Consts[i].Equal(&e) {
				return uint16(i)
			}
		}
		p.Consts = append(p.Consts, e)
		return uint16(len(p.Consts) - 1)
	}

	oneE := ff.One()
	for _, t := range c.Terms {
		if len(t.Factors) == 0 {
			p.Ops = append(p.Ops, Op{Kind: OpAccConst, B: constIdx(t.Coeff)})
			continue
		}
		cur := regOf(t.Factors[0].Var, t.Factors[0].Power)
		for _, f := range t.Factors[1:] {
			p.Ops = append(p.Ops, Op{Kind: OpMul, Dst: tmp, A: cur, B: regOf(f.Var, f.Power)})
			cur = tmp
		}
		if !t.Coeff.Equal(&oneE) {
			p.Ops = append(p.Ops, Op{Kind: OpMulConst, Dst: tmp, A: cur, B: constIdx(t.Coeff)})
			cur = tmp
		}
		p.Ops = append(p.Ops, Op{Kind: OpAcc, A: cur})
	}
	return p
}

// BlockWidth is the number of points one EvalBlock call evaluates: each
// register is a row of BlockWidth elements, so every op is one slice-kernel
// call over up to BlockWidth points instead of one dispatch per point.
// Widths 8 through 128 timed alike on the six sumcheck_sweep16 gates (a
// 2^15 single-worker ZeroCheck of each, medians 0.95–1.08 s, inside the
// 2-core test host's ±10% spread); 64 keeps the per-op call a small share
// of each op, and the scan's block buffer is then 36–108 KiB on those
// gates (Vanilla to Jellyfish), well inside L2.
const BlockWidth = 64

// EvalBlock runs the program at n ≤ BlockWidth points at once and writes
// the composite's value at point i to out[i]. The register file is NumRegs
// rows of BlockWidth elements (len(regs) >= NumRegs·BlockWidth): row r is
// regs[r·BlockWidth:], and the first n entries of the first NumInputs rows
// hold the constituent values, which the program never writes; the other
// rows are scratch it overwrites. Each op is one ff slice kernel over the
// n points (OpMul/OpSquare MulVec, OpMulConst ScalarMulVec), and the
// accumulating ops add into out[:n].
func (p *Program) EvalBlock(regs []ff.Element, n int, out []ff.Element) {
	if n > BlockWidth {
		panic("poly: EvalBlock block size out of range")
	}
	regs = regs[:p.NumRegs*BlockWidth]
	out = out[:n]
	row := func(r uint16) []ff.Element {
		o := int(r) * BlockWidth
		return regs[o : o+n]
	}
	clear(out)
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case OpMul:
			ff.MulVec(row(op.Dst), row(op.A), row(op.B))
		case OpSquare:
			a := row(op.A)
			ff.MulVec(row(op.Dst), a, a)
		case OpMulConst:
			ff.ScalarMulVec(row(op.Dst), row(op.A), &p.Consts[op.B])
		case OpAcc:
			a := row(op.A)
			for j := range out {
				out[j].Add(&out[j], &a[j])
			}
		case OpAccConst:
			c := &p.Consts[op.B]
			for j := range out {
				out[j].Add(&out[j], c)
			}
		}
	}
}

// String renders the program for diagnostics.
func (p *Program) String() string {
	s := fmt.Sprintf("program: %d inputs, %d regs, %d consts\n", p.NumInputs, p.NumRegs, len(p.Consts))
	for _, op := range p.Ops {
		switch op.Kind {
		case OpMul:
			s += fmt.Sprintf("  r%d = r%d * r%d\n", op.Dst, op.A, op.B)
		case OpSquare:
			s += fmt.Sprintf("  r%d = r%d^2\n", op.Dst, op.A)
		case OpMulConst:
			s += fmt.Sprintf("  r%d = r%d * c%d\n", op.Dst, op.A, op.B)
		case OpAcc:
			s += fmt.Sprintf("  acc += r%d\n", op.A)
		case OpAccConst:
			s += fmt.Sprintf("  acc += c%d\n", op.B)
		}
	}
	return s
}

// progCache is the atomic cache type embedded in Composite.
type progCache = atomic.Pointer[Program]
