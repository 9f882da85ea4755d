package poly

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"zkphire/internal/cpu/cputest"
	"zkphire/internal/expr"
	"zkphire/internal/ff"
)

// evalBoth runs the tree-walk interpreter at each assignment and the
// compiled program over all of them as one block of lane values, the last
// one partial when len(assigns) is not a multiple of eight, and fails on
// any divergence. Both sides are exact field arithmetic, so equality is
// limb equality.
func evalBoth(t *testing.T, c *Composite, assigns ...[]ff.Element) {
	t.Helper()
	prog := c.Compile()
	n := len(assigns)
	ng := (n + ff.LaneCount - 1) / ff.LaneCount
	regs := make([]ff.Lanes, prog.NumRegs*LaneRows)
	col := make([]ff.Element, n)
	for v := 0; v < prog.NumInputs; v++ {
		for i, assign := range assigns {
			col[i] = assign[v]
		}
		ff.PackLanes(regs[v*LaneRows:v*LaneRows+ng], col)
	}
	inputs := append([]ff.Lanes(nil), regs[:prog.NumInputs*LaneRows]...)
	out := make([]ff.Lanes, LaneRows+1)
	dead := ff.NewElement(0xdead)
	deadLanes := ff.NewLaneConst(&dead)
	sentinel := deadLanes.Row()[0]
	out[ng] = sentinel
	prog.EvalLanes(regs, ng, out)
	got := make([]ff.Element, n)
	ff.UnpackLanes(got, out[:ng])
	for i, assign := range assigns {
		if want := c.Evaluate(assign); !got[i].Equal(&want) {
			t.Fatalf("compiled evaluator diverges on %s at point %d of %d:\n%s", c.Name, i, n, prog.String())
		}
	}
	if out[ng] != sentinel {
		t.Fatalf("EvalLanes(ng=%d) wrote past out[:ng] on %s", ng, c.Name)
	}
	// Inputs must survive evaluation (the SumCheck scan steps them
	// incrementally between calls).
	for i := range inputs {
		if regs[i] != inputs[i] {
			t.Fatalf("program clobbered input register %d, value %d of %s", i/LaneRows, i%LaneRows, c.Name)
		}
	}
}

// randomBlock returns n random assignments for c.
func randomBlock(rng *ff.Rand, c *Composite, n int) [][]ff.Element {
	block := make([][]ff.Element, n)
	for i := range block {
		block[i] = rng.Elements(c.NumVars())
	}
	return block
}

func TestCompiledMatchesEvaluateRegistry(t *testing.T) {
	comps := []*Composite{}
	for id := 0; id < NumRegistered; id++ {
		comps = append(comps, Registered(id))
	}
	for _, d := range []int{2, 5, 13, 30} {
		comps = append(comps, HighDegree(d))
	}
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := ff.NewRand(41)
		for _, c := range comps {
			// A single point, a full block, and a ragged tail block.
			for _, n := range []int{1, BlockWidth, 5} {
				evalBoth(t, c, randomBlock(rng, c, n)...)
			}
		}
	})
}

// randomExpr builds a random expression over the given variables exercising
// every node kind — Var, Const, Add, Mul, Neg, and (nested) Pow.
func randomExpr(rng *ff.Rand, vars []string, depth int) expr.Expr {
	if depth == 0 {
		if rng.Intn(4) == 0 {
			return expr.C(int64(rng.Intn(11) - 5))
		}
		return expr.V(vars[rng.Intn(len(vars))])
	}
	switch rng.Intn(5) {
	case 0:
		n := 2 + rng.Intn(3)
		ops := make([]expr.Expr, n)
		for i := range ops {
			ops[i] = randomExpr(rng, vars, depth-1)
		}
		return expr.Sum(ops...)
	case 1:
		n := 2 + rng.Intn(2)
		ops := make([]expr.Expr, n)
		for i := range ops {
			ops[i] = randomExpr(rng, vars, depth-1)
		}
		return expr.Prod(ops...)
	case 2:
		return expr.Neg{Operand: randomExpr(rng, vars, depth-1)}
	case 3:
		// Pow, including Pow-of-Pow nesting one level down.
		return expr.P(randomExpr(rng, vars, depth-1), rng.Intn(4))
	default:
		return expr.Minus(randomExpr(rng, vars, depth-1), randomExpr(rng, vars, depth-1))
	}
}

func TestCompiledMatchesEvaluateRandomExpr(t *testing.T) {
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := ff.NewRand(42)
		vars := []string{"w1", "w2", "q1", "z"}
		built := 0
		for trial := 0; built < 60; trial++ {
			e := randomExpr(rng, vars, 3)
			monos := expr.Expand(e)
			if len(monos) == 0 {
				continue // expression collapsed to zero
			}
			c := FromExpr(fmt.Sprintf("rand%d", trial), -1, e, nil)
			built++
			// Five random points and the edge assignments all zeros and
			// all ones, as one block.
			block := randomBlock(rng, c, 5)
			zeros := make([]ff.Element, c.NumVars())
			ones := make([]ff.Element, c.NumVars())
			for i := range ones {
				ones[i] = ff.One()
			}
			evalBoth(t, c, append(block, zeros, ones)...)
		}
	})
}

// TestCompiledNestedPow pins deep power nesting: ((x²)³)² = x¹² must expand
// and compile to the same value as the interpreter.
func TestCompiledNestedPow(t *testing.T) {
	rng := ff.NewRand(43)
	e := expr.P(expr.P(expr.P(expr.V("x"), 2), 3), 2)
	c := FromExpr("nested-pow", -1, e, nil)
	if got := c.Degree(); got != 12 {
		t.Fatalf("nested pow degree = %d, want 12", got)
	}
	// Mixed: x¹²·y + 7·y³ − x.
	e2 := expr.Sum(
		expr.Prod(expr.P(expr.P(expr.V("x"), 4), 3), expr.V("y")),
		expr.Prod(expr.C(7), expr.P(expr.V("y"), 3)),
		expr.Neg{Operand: expr.V("x")},
	)
	c2 := FromExpr("mixed-pow", -1, e2, nil)
	cputest.EachLaneBody(t, func(t *testing.T) {
		evalBoth(t, c, randomBlock(rng, c, 20)...)
		evalBoth(t, c2, randomBlock(rng, c2, 20)...)
	})
}

// TestCompileHoistsPowers checks that shared powers are built once per
// point: q1·w² + q2·w² + q3·w² costs at most two products (a compiler
// that squared w once per term would spend six).
func TestCompileHoistsPowers(t *testing.T) {
	e := expr.Sum(
		expr.Prod(expr.V("q1"), expr.P(expr.V("w"), 2)),
		expr.Prod(expr.V("q2"), expr.P(expr.V("w"), 2)),
		expr.Prod(expr.V("q3"), expr.P(expr.V("w"), 2)),
	)
	c := FromExpr("hoist", -1, e, nil)
	if prog := c.Compile(); prog.muls() > 2 {
		t.Fatalf("%d products per point, want at most 2:\n%s", prog.muls(), prog.String())
	}
}

// termByTerm returns the products per point and the register count of
// the term-by-term program for c: one addition chain per variable through
// the powers its terms use, then each term's factors multiplied in turn
// and by its coefficient if that is not 1, in one product register.
func termByTerm(c *Composite) (muls, regs int) {
	need := make([][]int, c.NumVars())
	for _, t := range c.Terms {
		if len(t.Factors) == 0 {
			continue
		}
		muls += len(t.Factors) - 1
		if !t.Coeff.IsOne() {
			muls++
		}
		for _, f := range t.Factors {
			if f.Power > 1 && !slices.Contains(need[f.Var], f.Power) {
				need[f.Var] = append(need[f.Var], f.Power)
			}
		}
	}
	regs = c.NumVars() + 1
	for _, ks := range need {
		n := len(powerChain(ks))
		muls, regs = muls+n, regs+n
	}
	return muls, regs
}

// sweepGates are the six gates of the SumCheck sweep benchmark.
func sweepGates() []*Composite {
	alpha := ff.NewElement(0x9e3779b97f4a7c15)
	return []*Composite{VanillaGate(), JellyfishGate(), HighDegree(8), HighDegree(16), PermCheckK(3, alpha), PermCheckK(5, alpha)}
}

// TestCompileOpCounts pins each program's length, its multiplications
// per point (OpMul, OpSquare, OpMulConst, OpAccMul) and its register count
// for every registry composite and the sweep's gates, and checks that the
// factored program never costs more products or registers than the
// term-by-term one. Factoring turns Jellyfish's q·w + q_H·w⁵ into
// w·(q + q_H·w⁴), which builds w⁴ in two squarings, and every ZeroCheck
// composite's f_r multiplies once, after the sum.
func TestCompileOpCounts(t *testing.T) {
	want := map[string][3]int{ // name: {ops, muls, regs}
		"VanillaGate": {10, 5, 9}, "JellyfishGate": {35, 22, 23},
		"HighDegree8": {11, 7, 8}, "HighDegree16": {12, 8, 8},
		"PermCheck3": {14, 10, 12}, "PermCheck5": {18, 14, 16},
		"VerifiableASICs": {6, 3, 5}, "Spartan1": {5, 3, 5}, "Spartan2": {2, 1, 3},
		"NonzeroPointCheck": {8, 5, 5}, "XGatedCurveCheck": {9, 6, 5}, "YGatedCurveCheck": {9, 6, 5},
		"IncompleteAdd1": {24, 14, 9}, "IncompleteAdd2": {14, 8, 8},
		"CompleteAdd1": {15, 8, 8}, "CompleteAdd2": {21, 15, 8}, "CompleteAdd3": {15, 9, 8},
		"CompleteAdd4": {19, 11, 9}, "CompleteAdd5": {20, 12, 10}, "CompleteAdd6": {21, 13, 10},
		"CompleteAdd7": {9, 5, 6}, "CompleteAdd8": {9, 5, 6}, "CompleteAdd9": {9, 5, 6},
		"CompleteAdd10": {9, 5, 6}, "CompleteAdd11": {13, 8, 9}, "CompleteAdd12": {13, 8, 9},
		"VanillaZeroCheck": {11, 6, 10}, "VanillaPermCheck": {14, 10, 12},
		"JellyfishZeroCheck": {36, 23, 24}, "JellyfishPermCheck": {18, 14, 16}, "OpenCheck": {12, 6, 13},
	}
	comps := sweepGates()
	for id := 0; id < NumRegistered; id++ {
		comps = append(comps, Registered(id))
	}
	for _, c := range comps {
		prog := c.Compile()
		got := [3]int{len(prog.Ops), prog.muls(), prog.NumRegs}
		w, ok := want[c.Name]
		if !ok {
			t.Fatalf("no pinned op count for %s: {ops, muls, regs} = %v", c.Name, got)
		}
		if got != w {
			t.Errorf("%s: {ops, muls, regs} = %v, want %v:\n%s", c.Name, got, w, prog.String())
		}
		if muls, regs := termByTerm(c); got[1] > muls || got[2] > regs {
			t.Errorf("%s: %d products and %d registers, term by term %d and %d", c.Name, got[1], got[2], muls, regs)
		}
	}
}

// encodeComposite writes c in FuzzCompile's input format: the variable
// count, then per term its factor count, its coefficient (a kind byte: 0,
// 1, −1, a small integer, or ± eight bytes of one word) and one (variable,
// power) byte pair per factor.
func encodeComposite(c *Composite) []byte {
	data := []byte{byte(c.NumVars() - 1)}
	minusOne := ff.NewInt64(-1)
	for _, t := range c.Terms {
		data = append(data, byte(len(t.Factors)))
		var neg ff.Element
		neg.Neg(&t.Coeff)
		switch {
		case t.Coeff.IsZero():
			data = append(data, 0)
		case t.Coeff.IsOne():
			data = append(data, 1)
		case t.Coeff.Equal(&minusOne):
			data = append(data, 2)
		default:
			kind := byte(3)
			w, ok := t.Coeff.Uint64()
			if !ok {
				kind = 4
				w, _ = neg.Uint64()
			}
			data = append(data, kind)
			data = binary.LittleEndian.AppendUint64(data, w)
		}
		for _, f := range t.Factors {
			data = append(data, byte(f.Var), byte(f.Power-1))
		}
	}
	return data
}

// decodeComposite reads FuzzCompile's input: up to 32 variables and 24
// terms of up to seven factors, powers 1–17; a variable that repeats
// within a term is skipped, and a truncated term ends the input.
func decodeComposite(data []byte) *Composite {
	if len(data) == 0 {
		return nil
	}
	c := &Composite{Name: "fuzz", ID: -1}
	nv := 1 + int(data[0])%32
	for v := range nv {
		c.VarNames = append(c.VarNames, fmt.Sprintf("v%d", v))
		c.Roles = append(c.Roles, RoleDense)
	}
	data = data[1:]
	for len(data) >= 2 && len(c.Terms) < 24 {
		nf, kind := int(data[0])%8, data[1]%8
		data = data[2:]
		var t Term
		switch kind {
		case 0:
		case 1:
			t.Coeff = ff.One()
		case 2:
			t.Coeff = ff.NewInt64(-1)
		case 3, 4:
			if len(data) < 8 {
				return c
			}
			t.Coeff = ff.NewElement(binary.LittleEndian.Uint64(data))
			if kind == 4 {
				t.Coeff.Neg(&t.Coeff)
			}
			data = data[8:]
		default:
			t.Coeff = ff.NewElement(uint64(kind))
		}
		if len(data) < 2*nf {
			return c
		}
		for i := range nf {
			v, pow := int(data[2*i])%nv, 1+int(data[2*i+1])%17
			if !slices.ContainsFunc(t.Factors, func(f Factor) bool { return f.Var == v }) {
				t.Factors = append(t.Factors, Factor{Var: v, Power: pow})
			}
		}
		data = data[2*nf:]
		if len(t.Factors) > 0 || !t.Coeff.IsZero() {
			c.Terms = append(c.Terms, t)
		}
	}
	return c
}

// FuzzCompile compiles random composites — constant terms, variables
// shared across terms, powers 1–17, coefficients 0, 1, −1 and others — and
// checks on both Lanes bodies that EvalLanes equals Composite.Evaluate at
// random points, and that the factored program costs no more products and
// registers than the term-by-term one. The seeds are the sweep's six gates
// and a·w¹⁶ + b·w, where factoring w out would need a longer chain.
func FuzzCompile(f *testing.F) {
	w16w := FromExpr("w16+w", -1, expr.Sum(
		expr.Prod(expr.V("a"), expr.P(expr.V("w"), 16)),
		expr.Prod(expr.V("b"), expr.V("w")),
	), nil)
	for _, c := range append(sweepGates(), w16w) {
		data := encodeComposite(c)
		if !slices.EqualFunc(decodeComposite(data).Terms, c.Terms, func(a, b Term) bool {
			return a.Coeff.Equal(&b.Coeff) && slices.Equal(a.Factors, b.Factors)
		}) {
			f.Fatalf("%s does not survive its encoding", c.Name)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeComposite(data)
		if c == nil || len(c.Terms) == 0 {
			return
		}
		prog := c.Compile()
		if muls, regs := termByTerm(c); prog.muls() > muls || prog.NumRegs > regs {
			t.Fatalf("%d products and %d registers, term by term %d and %d:\n%s\n%s", prog.muls(), prog.NumRegs, muls, regs, c, prog)
		}
		cputest.EachLaneBody(t, func(t *testing.T) {
			evalBoth(t, c, randomBlock(ff.NewRand(44), c, 9)...)
		})
	})
}

// TestPowerChain checks powerChain's chains are valid and as short as
// pinned, and that an exponent set past the search budget still gets a
// valid square-and-multiply chain.
func TestPowerChain(t *testing.T) {
	for _, tc := range []struct {
		need  []int
		steps int
	}{
		{nil, 0}, {[]int{2}, 1}, {[]int{5}, 3}, {[]int{7}, 4}, {[]int{15}, 5},
		{[]int{12}, 4}, {[]int{29}, 7}, {[]int{3, 5}, 3}, {[]int{2, 5, 7}, 4},
		{seq(3, 20), 19},
		{[]int{1000, 777, 123}, -1}, // past the budget: only validity is checked
		{seq(2, 80), 79},            // a step per power, deeper than a shift's width
	} {
		steps := powerChain(tc.need)
		have := map[int]bool{1: true}
		for _, st := range steps {
			if !have[st.a] || !have[st.b] || st.a+st.b != st.sum {
				t.Fatalf("powerChain(%v): invalid step %+v in %+v", tc.need, st, steps)
			}
			have[st.sum] = true
		}
		for _, k := range tc.need {
			if !have[k] {
				t.Fatalf("powerChain(%v) misses %d: %+v", tc.need, k, steps)
			}
		}
		if tc.steps >= 0 && len(steps) != tc.steps {
			t.Errorf("powerChain(%v) has %d steps, want %d: %+v", tc.need, len(steps), tc.steps, steps)
		}
	}
}

// seq returns lo, lo+1, …, hi.
func seq(lo, hi int) []int {
	s := []int{}
	for k := lo; k <= hi; k++ {
		s = append(s, k)
	}
	return s
}

// TestCompileCaching: Compile must return the same program pointer on reuse.
func TestCompileCaching(t *testing.T) {
	c := VanillaGate()
	if c.Compile() != c.Compile() {
		t.Fatal("Compile does not cache")
	}
}
