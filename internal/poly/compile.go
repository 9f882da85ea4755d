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
// power loops per point.
//
// Compilation factors the sum before it emits anything: it repeatedly
// pulls out of a sum the variable that occurs in the most of its terms,
// Σ c_k·v^m·rest_k = v^m·Σ c_k·rest_k with m the least power of v among
// them, so those terms share one product by v^m, and factors the inner sum
// the same way (greedy multivariate Horner: Ceberio and Kreinovich, ACM
// SIGSAM Bulletin 38(1), 2004). A factoring is kept only
// where it lowers the program's product count, power chains included, and
// keeps its register count at or below the term-by-term program's: a·w¹⁶
// + b·w stays as it is, since w·(a·w¹⁵ + b) trades w¹⁶'s four-step chain
// for a five-step one. Each variable's powers then come from one shortest
// addition chain through the powers left after factoring (powerChain), so
// Jellyfish's q·w + q_H·w⁵ becomes w·(q + q_H·w⁴) and builds w⁴, not w⁵.
// Coefficient multiplications are emitted only for coefficients ≠ 1, a
// sum's constant terms are added up at compile time, and zero terms are
// dropped. internal/core keeps the paper's term-by-term Fig. 2 schedule
// for the hardware model; the two count the same products per point only
// where nothing factors.
//
// Register layout: registers [0, NumInputs) are the per-point values of the
// constituent MLEs, in VarNames order — the caller loads them and the
// program never writes them. Registers [NumInputs, NumRegs) are scratch:
// power-chain entries, products and inner sums, each register free again
// after its last read. The evaluation result is a separate accumulator, so
// a program evaluation is a pure function of the input registers; the
// first factoring of the outermost sum is summed in the accumulator itself
// and closed by OpAccMul. The
// program runs over a block of points at once (EvalLanes): every register
// is a row of LaneRows ff.Lanes values holding BlockWidth points eight to a
// value.

// OpKind discriminates the compiled instruction set.
type OpKind uint8

const (
	// OpMul: R[Dst] = R[A]·R[B].
	OpMul OpKind = iota
	// OpSquare: R[Dst] = R[A]².
	OpSquare
	// OpMulConst: R[Dst] = R[A]·Consts[B].
	OpMulConst
	// OpAdd: R[Dst] = R[A] + R[B].
	OpAdd
	// OpAddConst: R[Dst] = R[A] + Consts[B].
	OpAddConst
	// OpAcc: acc += R[A].
	OpAcc
	// OpAccConst: acc += Consts[B] (a constant term).
	OpAccConst
	// OpAccMul: acc ·= R[A], which closes a factoring summed in acc.
	OpAccMul
)

// Op is one straight-line instruction. A and B index registers (or Consts
// for the B of OpMulConst, OpAddConst and OpAccConst); Dst is always a
// scratch register.
type Op struct {
	Kind   OpKind
	Dst, A uint16
	B      uint16
}

// reads returns the op's register operands.
func (op *Op) reads() []*uint16 {
	switch op.Kind {
	case OpMul, OpAdd:
		return []*uint16{&op.A, &op.B}
	case OpAccConst:
		return nil
	default:
		return []*uint16{&op.A}
	}
}

// Program is a compiled composite evaluator.
type Program struct {
	// NumInputs is the number of constituent MLEs (register file prefix).
	NumInputs int
	// NumRegs is the total register count the evaluator needs.
	NumRegs int
	// Consts holds the coefficients and constant terms the ops reference.
	Consts []ff.Element
	// Ops is the instruction list, executed in order.
	Ops []Op

	// laneConsts[i] is Consts[i] in every lane, for EvalLanes.
	laneConsts []ff.LaneConst
}

// muls returns the number of field multiplications per point.
func (p *Program) muls() int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpMul || op.Kind == OpSquare || op.Kind == OpMulConst || op.Kind == OpAccMul {
			n++
		}
	}
	return n
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

// sum is a polynomial in factored form: its terms plus v^pow·inner for
// each of its factorings.
type sum struct {
	terms []Term
	facs  []factoring
}

// factoring is v^pow·inner.
type factoring struct {
	v, pow int
	inner  *sum
}

// compiler holds one compilation's variable count and register bound.
type compiler struct{ nv, maxRegs int }

func compile(c *Composite) *Program {
	root := &sum{}
	for _, t := range c.Terms {
		if !t.Coeff.IsZero() {
			root.terms = append(root.terms, t)
		}
	}
	cp := &compiler{nv: len(c.VarNames)}
	// The term-by-term program's register count: the inputs, every chain
	// entry and one product register.
	need := make([][]int, cp.nv)
	root.powers(need)
	cp.maxRegs = cp.nv + 1
	for _, ks := range need {
		cp.maxRegs += len(powerChain(ks))
	}
	best := cp.emit(root).muls()
	cp.factor(root, root, &best)
	p := cp.emit(root)
	p.allocate()
	p.laneConsts = make([]ff.LaneConst, len(p.Consts))
	for i := range p.Consts {
		p.laneConsts[i] = ff.NewLaneConst(&p.Consts[i])
	}
	return p
}

// factor factors s, a sum inside root, greedily: it tries the variables
// that occur in at least two of s's terms, most occurrences first, and
// keeps the first factoring that brings root's product count below *best
// without raising its register count above the term-by-term program's;
// then it factors the new inner sum and tries again on what is left of s.
func (cp *compiler) factor(root, s *sum, best *int) {
	for {
		kept := false
		for _, v := range sharedVars(s.terms, cp.nv) {
			terms := s.terms
			inner, rest, m := split(terms, v)
			s.terms = rest
			s.facs = append(s.facs, factoring{v: v, pow: m, inner: &sum{terms: inner}})
			if p := cp.emit(root); p.muls() < *best && p.allocate() <= cp.maxRegs {
				*best = p.muls()
				cp.factor(root, s.facs[len(s.facs)-1].inner, best)
				kept = true
				break
			}
			s.terms, s.facs = terms, s.facs[:len(s.facs)-1]
		}
		if !kept {
			return
		}
	}
}

// sharedVars returns the variables that occur in two or more of terms,
// by descending occurrence count, ties by variable index.
func sharedVars(terms []Term, nv int) []int {
	count := make([]int, nv)
	for _, t := range terms {
		for _, f := range t.Factors {
			count[f.Var]++
		}
	}
	vars := []int{}
	for v, n := range count {
		if n >= 2 {
			vars = append(vars, v)
		}
	}
	slices.SortStableFunc(vars, func(a, b int) int { return count[b] - count[a] })
	return vars
}

// split divides v^m out of the terms that contain v, m the least power of
// v among them, and returns those quotients (inner) and the other terms
// (rest).
func split(terms []Term, v int) (inner, rest []Term, m int) {
	for _, t := range terms {
		for _, f := range t.Factors {
			if f.Var == v && (m == 0 || f.Power < m) {
				m = f.Power
			}
		}
	}
	for _, t := range terms {
		i := slices.IndexFunc(t.Factors, func(f Factor) bool { return f.Var == v })
		if i < 0 {
			rest = append(rest, t)
			continue
		}
		q := Term{Coeff: t.Coeff, Factors: slices.Delete(slices.Clone(t.Factors), i, i+1)}
		if p := t.Factors[i].Power - m; p > 0 {
			q.Factors = slices.Insert(q.Factors, i, Factor{Var: v, Power: p})
		}
		inner = append(inner, q)
	}
	return inner, rest, m
}

// emitter lowers a factored sum to a Program over virtual registers: the
// inputs, then one fresh register per op result (allocate maps them onto
// the scratch rows).
type emitter struct {
	p   *Program
	pow map[[2]int]uint16
}

// emit lowers root: first one addition chain per variable through the
// powers root uses, then root's terms and factorings, each added into the
// accumulator as soon as it is computed.
func (cp *compiler) emit(root *sum) *Program {
	e := &emitter{p: &Program{NumInputs: cp.nv, NumRegs: cp.nv}, pow: map[[2]int]uint16{}}
	need := make([][]int, cp.nv)
	root.powers(need)
	for v, ks := range need {
		for _, st := range powerChain(ks) {
			e.pow[[2]int{v, st.sum}] = e.op(OpMul, e.reg(v, st.a), e.reg(v, st.b))
		}
	}
	e.accumulate(root, true)
	return e.p
}

// accumulate adds s to the accumulator and reports whether it emitted
// anything. While the accumulator is still zero (empty), s's first
// factoring v^m·inner is summed in the accumulator itself, which then
// takes one OpAccMul by v^m, so that inner sum needs no register of its
// own.
func (e *emitter) accumulate(s *sum, empty bool) bool {
	n := len(e.p.Ops)
	if empty && len(s.facs) > 0 {
		f := s.facs[0]
		if e.accumulate(f.inner, true) {
			e.p.Ops = append(e.p.Ops, Op{Kind: OpAccMul, A: e.reg(f.v, f.pow)})
		}
		s = &sum{terms: s.terms, facs: s.facs[1:]}
	}
	k := e.components(s, func(r uint16) { e.p.Ops = append(e.p.Ops, Op{Kind: OpAcc, A: r}) })
	if !k.IsZero() {
		e.p.Ops = append(e.p.Ops, Op{Kind: OpAccConst, B: e.constIdx(k)})
	}
	return len(e.p.Ops) > n
}

// powers adds to need[v] every power of v above 1 that s multiplies by.
func (s *sum) powers(need [][]int) {
	add := func(v, k int) {
		if k > 1 && !slices.Contains(need[v], k) {
			need[v] = append(need[v], k)
		}
	}
	for _, f := range s.facs {
		add(f.v, f.pow)
		f.inner.powers(need)
	}
	for _, t := range s.terms {
		for _, f := range t.Factors {
			add(f.Var, f.Power)
		}
	}
}

// reg is the register holding v^k.
func (e *emitter) reg(v, k int) uint16 {
	if k == 1 {
		return uint16(v)
	}
	return e.pow[[2]int{v, k}]
}

// op appends a register-writing op on a fresh register and returns it; a
// product of a register with itself is an OpSquare.
func (e *emitter) op(kind OpKind, a, b uint16) uint16 {
	if kind == OpMul && a == b {
		kind = OpSquare
	}
	dst := uint16(e.p.NumRegs)
	e.p.NumRegs++
	e.p.Ops = append(e.p.Ops, Op{Kind: kind, Dst: dst, A: a, B: b})
	return dst
}

// constIdx returns x's index in Consts, adding it if new.
func (e *emitter) constIdx(x ff.Element) uint16 {
	for i := range e.p.Consts {
		if e.p.Consts[i].Equal(&x) {
			return uint16(i)
		}
	}
	e.p.Consts = append(e.p.Consts, x)
	return uint16(len(e.p.Consts) - 1)
}

// components emits each of s's factorings and non-constant terms into a
// register, handing it to add before emitting the next, and returns the
// sum of s's constant terms.
func (e *emitter) components(s *sum, add func(r uint16)) (k ff.Element) {
	for _, f := range s.facs {
		r, ok, c := e.value(f.inner)
		p := e.reg(f.v, f.pow)
		switch {
		case ok:
			add(e.op(OpMul, p, r))
		case c.IsOne():
			add(p)
		case !c.IsZero():
			add(e.op(OpMulConst, p, e.constIdx(c)))
		}
	}
	for _, t := range s.terms {
		if len(t.Factors) == 0 {
			k.Add(&k, &t.Coeff)
			continue
		}
		r := e.reg(t.Factors[0].Var, t.Factors[0].Power)
		for _, f := range t.Factors[1:] {
			r = e.op(OpMul, r, e.reg(f.Var, f.Power))
		}
		if !t.Coeff.IsOne() {
			r = e.op(OpMulConst, r, e.constIdx(t.Coeff))
		}
		add(r)
	}
	return k
}

// value emits s into a register r, or returns ok = false when s is the
// constant c alone.
func (e *emitter) value(s *sum) (r uint16, ok bool, c ff.Element) {
	c = e.components(s, func(x uint16) {
		if ok {
			r = e.op(OpAdd, r, x)
		} else {
			r, ok = x, true
		}
	})
	if ok && !c.IsZero() {
		r = e.op(OpAddConst, r, e.constIdx(c))
	}
	return r, ok, c
}

// allocate maps the virtual registers past NumInputs onto as few scratch
// registers as it can and returns the new NumRegs: a register is free
// again after its last read, and an op's Dst takes the lowest free one,
// which may be a register the same op reads last (every row kernel lets
// its result alias an operand index for index).
func (p *Program) allocate() int {
	last := make([]int, p.NumRegs)
	for i := range p.Ops {
		for _, r := range p.Ops[i].reads() {
			last[*r] = i
		}
	}
	phys := make([]uint16, p.NumRegs)
	for v := range p.NumInputs {
		phys[v] = uint16(v)
	}
	busy := []bool{}
	p.NumRegs = p.NumInputs
	for i := range p.Ops {
		op := &p.Ops[i]
		for _, r := range op.reads() {
			v := *r
			*r = phys[v]
			if int(v) >= p.NumInputs && last[v] == i {
				busy[int(phys[v])-p.NumInputs] = false
			}
		}
		if op.Kind == OpAcc || op.Kind == OpAccConst || op.Kind == OpAccMul {
			continue
		}
		s := slices.Index(busy, false)
		if s < 0 {
			s = len(busy)
			busy = append(busy, false)
		}
		busy[s] = true
		phys[op.Dst] = uint16(p.NumInputs + s)
		op.Dst = phys[op.Dst]
		p.NumRegs = max(p.NumRegs, p.NumInputs+len(busy))
	}
	return p.NumRegs
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
// scan's buffer is then 55–123 KiB on those gates, inside L2.
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
		case OpAdd:
			ff.AddLanes(row(op.Dst), row(op.A), row(op.B))
		case OpAddConst:
			dst, a, c := row(op.Dst), row(op.A), p.laneConsts[op.B].Row()
			for g := range dst {
				ff.AddLanes(dst[g:g+1], a[g:g+1], c)
			}
		case OpAcc:
			ff.AddLanes(out, out, row(op.A))
		case OpAccConst:
			c := p.laneConsts[op.B].Row()
			for g := range out {
				ff.AddLanes(out[g:g+1], out[g:g+1], c)
			}
		case OpAccMul:
			ff.MulLanes(out, out, row(op.A))
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
		case OpAdd:
			s += fmt.Sprintf("  r%d = r%d + r%d\n", op.Dst, op.A, op.B)
		case OpAddConst:
			s += fmt.Sprintf("  r%d = r%d + c%d\n", op.Dst, op.A, op.B)
		case OpAcc:
			s += fmt.Sprintf("  acc += r%d\n", op.A)
		case OpAccConst:
			s += fmt.Sprintf("  acc += c%d\n", op.B)
		case OpAccMul:
			s += fmt.Sprintf("  acc *= r%d\n", op.A)
		}
	}
	return s
}

// progCache is the atomic cache type embedded in Composite.
type progCache = atomic.Pointer[Program]
