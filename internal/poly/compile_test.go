package poly

import (
	"fmt"
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

// TestCompileHoistsPowers checks the compiler's shared-power hoisting: a
// composite where three terms use w² must square w once per evaluation.
func TestCompileHoistsPowers(t *testing.T) {
	e := expr.Sum(
		expr.Prod(expr.V("q1"), expr.P(expr.V("w"), 2)),
		expr.Prod(expr.V("q2"), expr.P(expr.V("w"), 2)),
		expr.Prod(expr.V("q3"), expr.P(expr.V("w"), 2)),
	)
	c := FromExpr("hoist", -1, e, nil)
	prog := c.Compile()
	squares := 0
	for _, op := range prog.Ops {
		if op.Kind == OpSquare {
			squares++
		}
	}
	if squares != 1 {
		t.Fatalf("expected 1 hoisted square, got %d:\n%s", squares, prog.String())
	}
}

// TestCompileOpCounts pins each program's length and its multiplications
// (OpMul, OpSquare, OpMulConst) per point for every registry composite and
// the sweep's high-degree gates. Each variable's powers come from one
// shortest addition chain through the powers its terms use: HighDegree(16)
// builds w¹⁵ in five steps (2, 3, 6, 12, 15), HighDegree(8) w⁷ in four,
// and each Jellyfish w⁵ in three (2, 4, 5).
func TestCompileOpCounts(t *testing.T) {
	want := map[string][2]int{ // name: {ops, muls}
		"VerifiableASICs": {7, 4}, "Spartan1": {6, 4}, "Spartan2": {2, 1},
		"NonzeroPointCheck": {10, 7}, "XGatedCurveCheck": {12, 9}, "YGatedCurveCheck": {13, 10},
		"IncompleteAdd1": {39, 29}, "IncompleteAdd2": {21, 15},
		"CompleteAdd1": {27, 20}, "CompleteAdd2": {30, 24}, "CompleteAdd3": {30, 24},
		"CompleteAdd4": {41, 33}, "CompleteAdd5": {45, 37}, "CompleteAdd6": {49, 41},
		"CompleteAdd7": {14, 10}, "CompleteAdd8": {14, 10}, "CompleteAdd9": {14, 10},
		"CompleteAdd10": {14, 10}, "CompleteAdd11": {21, 16}, "CompleteAdd12": {21, 16},
		"VanillaZeroCheck": {16, 11}, "VanillaPermCheck": {17, 13},
		"JellyfishZeroCheck": {56, 43}, "JellyfishPermCheck": {21, 17}, "OpenCheck": {12, 6},
		"HighDegree8": {12, 8}, "HighDegree16": {13, 9},
	}
	comps := []*Composite{HighDegree(8), HighDegree(16)}
	for id := 0; id < NumRegistered; id++ {
		comps = append(comps, Registered(id))
	}
	for _, c := range comps {
		prog := c.Compile()
		muls := 0
		for _, op := range prog.Ops {
			if op.Kind == OpMul || op.Kind == OpSquare || op.Kind == OpMulConst {
				muls++
			}
		}
		w, ok := want[c.Name]
		if !ok {
			t.Fatalf("no pinned op count for %s (%d ops, %d muls)", c.Name, len(prog.Ops), muls)
		}
		if got := [2]int{len(prog.Ops), muls}; got != w {
			t.Errorf("%s: {ops, muls} = %v, want %v:\n%s", c.Name, got, w, prog.String())
		}
	}
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
