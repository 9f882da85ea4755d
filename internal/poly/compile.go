package poly

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"zkphire/internal/ff"
)

// This file compiles a Composite's expression DAG into a straight-line
// evaluation program once, so the SumCheck scan — which evaluates the
// composite at every hypercube point for every extension point t — runs a
// flat op list over a register file instead of walking terms, factors, and
// power loops per point. Compilation hoists the power chains: if several
// terms share w1², it is squared once per point, not once per term; each
// variable's powers come from one shortest addition chain through the
// powers its terms use (powerChain); coefficient multiplications are
// emitted only for coefficients ≠ 1.
//
// Register layout: registers [0, NumInputs) are the per-point values of the
// constituent MLEs, in VarNames order — the caller loads them and the
// program never writes them. Registers [NumInputs, NumRegs) hold hoisted
// powers and one term scratch slot. The evaluation result is a separate
// accumulator, so a program evaluation is a pure function of the input
// registers. The program runs over a block of points at once (EvalLanes):
// every register is a row of LaneRows ff.Lanes values holding BlockWidth
// points eight to a value.

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

	// laneConsts[i] is Consts[i] in every lane, for EvalLanes.
	laneConsts []ff.LaneConst
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

	// The powers each variable's terms use, then one addition chain per
	// variable through all of them; every chain entry gets a register.
	need := make([][]int, nv)
	for _, t := range c.Terms {
		for _, f := range t.Factors {
			if f.Power > 1 && !slices.Contains(need[f.Var], f.Power) {
				need[f.Var] = append(need[f.Var], f.Power)
			}
		}
	}
	next := uint16(nv)
	powReg := make(map[[2]int]uint16, nv)
	regOf := func(v, pow int) uint16 {
		if pow == 1 {
			return uint16(v)
		}
		return powReg[[2]int{v, pow}]
	}
	for v := 0; v < nv; v++ {
		for _, st := range powerChain(need[v]) {
			dst := next
			next++
			powReg[[2]int{v, st.sum}] = dst
			if st.a == st.b {
				p.Ops = append(p.Ops, Op{Kind: OpSquare, Dst: dst, A: regOf(v, st.a)})
			} else {
				p.Ops = append(p.Ops, Op{Kind: OpMul, Dst: dst, A: regOf(v, st.a), B: regOf(v, st.b)})
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
	p.laneConsts = make([]ff.LaneConst, len(p.Consts))
	for i := range p.Consts {
		p.laneConsts[i] = ff.NewLaneConst(&p.Consts[i])
	}
	return p
}

// chainStep is one addition-chain step: x^sum = x^a · x^b, a squaring when
// a == b.
type chainStep struct{ sum, a, b int }

// chainSearchBudget caps powerChain's search (nodes visited); past it the
// chain is every power up to the largest, so compiling stays cheap for any
// exponent set a circuit may bring.
const chainSearchBudget = 1 << 16

// powerChain returns the steps of a shortest star addition chain (each
// step adds the previous entry to some entry, 1 being the first) that
// passes through every power in need (all ≥ 2), in order; nil for none.
// It is found by iterative deepening, trying the largest step first, so
// x¹⁵ comes out as 2, 3, 6, 12, 15 (five products where square-and-
// multiply takes six). If the search outruns chainSearchBudget it falls
// back to every power from 2 to the largest.
func powerChain(need []int) []chainStep {
	if len(need) == 0 {
		return nil
	}
	top := slices.Max(need)
	chain := []int{1}
	steps := []chainStep{}
	nodes := 0
	var search func(depth int) bool
	search = func(depth int) bool {
		if nodes++; nodes > chainSearchBudget {
			return false
		}
		last := chain[len(chain)-1]
		missing := 0
		for _, k := range need {
			if !slices.Contains(chain, k) {
				if k < last {
					return false // the chain ascends: k is out of reach
				}
				missing++
			}
		}
		if missing == 0 {
			return true
		}
		if missing > depth || depth < bits.UintSize-1 && last<<uint(depth) < top {
			return false
		}
		for i := len(chain) - 1; i >= 0; i-- {
			k := last + chain[i]
			if k > top {
				continue
			}
			chain = append(chain, k)
			steps = append(steps, chainStep{k, last, chain[i]})
			if search(depth - 1) {
				return true
			}
			chain, steps = chain[:len(chain)-1], steps[:len(steps)-1]
		}
		return false
	}
	for depth := bits.Len(uint(top)) - 1; nodes <= chainSearchBudget; depth++ {
		if search(depth) {
			return steps
		}
	}
	// Every power from 2 to top: x^k is x^(k/2) squared or x^(k−1)·x.
	for k := 2; k <= top; k++ {
		if k%2 == 0 {
			steps = append(steps, chainStep{k, k / 2, k / 2})
		} else {
			steps = append(steps, chainStep{k, k - 1, 1})
		}
	}
	return steps
}

// BlockWidth is the number of points one EvalLanes call evaluates, so
// every op is one ff.Lanes row call over up to BlockWidth points. It must
// be a multiple of ff.LaneCount. On the IFMA body widths 16 through 256
// timed alike (a 2^15 single-worker ZeroCheck of each sumcheck_sweep16
// gate, three runs per width on a 2-core IFMA host: 0.27–0.35 s at every
// width); 64 keeps the per-op call a small share of each op, and the
// scan's buffer is then 55–143 KiB on those gates, inside L2.
const BlockWidth = 64

// LaneRows is the number of ff.Lanes values in one register row of
// EvalLanes: BlockWidth points, eight to a value.
const LaneRows = BlockWidth / ff.LaneCount

// BlockWidth must fill whole lane rows.
const _ = uint(-(BlockWidth % ff.LaneCount))

// EvalLanes runs the program at the points of ng ≤ LaneRows lane values and
// writes the composite's values to out[:ng]. The register file is NumRegs
// rows of LaneRows values (len(regs) >= NumRegs·LaneRows): row r is
// regs[r·LaneRows:], value g of a row holds points 8g..8g+7, and the first
// ng values of the first NumInputs rows hold the constituent values, which
// the program never writes. Each op is one ff.Lanes row call. Every lane of
// out is the composite at that lane's inputs, constant terms included, so
// a lane that holds no point (a zero-padded lane) must not be summed.
func (p *Program) EvalLanes(regs []ff.Lanes, ng int, out []ff.Lanes) {
	if ng > LaneRows {
		panic("poly: EvalLanes block size out of range")
	}
	regs = regs[:p.NumRegs*LaneRows]
	out = out[:ng]
	row := func(r uint16) []ff.Lanes {
		o := int(r) * LaneRows
		return regs[o : o+ng]
	}
	clear(out)
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case OpMul:
			ff.MulLanes(row(op.Dst), row(op.A), row(op.B))
		case OpSquare:
			a := row(op.A)
			ff.MulLanes(row(op.Dst), a, a)
		case OpMulConst:
			ff.ScalarMulLanes(row(op.Dst), row(op.A), p.laneConsts[op.B].Row())
		case OpAcc:
			ff.AddLanes(out, out, row(op.A))
		case OpAccConst:
			c := p.laneConsts[op.B].Row()
			for g := range out {
				ff.AddLanes(out[g:g+1], out[g:g+1], c)
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
