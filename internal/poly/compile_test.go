package poly

import (
	"fmt"
	"testing"

	"zkphire/internal/expr"
	"zkphire/internal/ff"
)

// evalBoth runs the tree-walk interpreter at each assignment and the
// compiled program over all of them as one block, and fails on any
// divergence. Both sides are exact field arithmetic, so equality is limb
// equality.
func evalBoth(t *testing.T, c *Composite, assigns ...[]ff.Element) {
	t.Helper()
	prog := c.Compile()
	n := len(assigns)
	regs := make([]ff.Element, prog.NumRegs*BlockWidth)
	for i, assign := range assigns {
		for v := range assign {
			regs[v*BlockWidth+i] = assign[v]
		}
	}
	inputs := append([]ff.Element(nil), regs[:prog.NumInputs*BlockWidth]...)
	out := make([]ff.Element, BlockWidth+1)
	sentinel := ff.NewElement(0xdead)
	out[n] = sentinel
	prog.EvalBlock(regs, n, out)
	for i, assign := range assigns {
		if want := c.Evaluate(assign); !out[i].Equal(&want) {
			t.Fatalf("compiled evaluator diverges on %s at point %d of %d:\n%s", c.Name, i, n, prog.String())
		}
	}
	if !out[n].Equal(&sentinel) {
		t.Fatalf("EvalBlock(n=%d) wrote past out[:n] on %s", n, c.Name)
	}
	// Inputs must survive evaluation (the SumCheck scan steps them
	// incrementally between calls).
	for i := range inputs {
		if !regs[i].Equal(&inputs[i]) {
			t.Fatalf("program clobbered input register %d, point %d of %s", i/BlockWidth, i%BlockWidth, c.Name)
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
	rng := ff.NewRand(41)
	comps := []*Composite{}
	for id := 0; id < NumRegistered; id++ {
		comps = append(comps, Registered(id))
	}
	for _, d := range []int{2, 5, 13, 30} {
		comps = append(comps, HighDegree(d))
	}
	for _, c := range comps {
		// A single point, a full block, and a ragged tail block.
		for _, n := range []int{1, BlockWidth, 5} {
			evalBoth(t, c, randomBlock(rng, c, n)...)
		}
	}
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
		// Five random points and the edge assignments all zeros and all
		// ones, as one block.
		block := randomBlock(rng, c, 5)
		zeros := make([]ff.Element, c.NumVars())
		ones := make([]ff.Element, c.NumVars())
		for i := range ones {
			ones[i] = ff.One()
		}
		evalBoth(t, c, append(block, zeros, ones)...)
	}
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
	evalBoth(t, c, randomBlock(rng, c, 20)...)
	// Mixed: x¹²·y + 7·y³ − x.
	e2 := expr.Sum(
		expr.Prod(expr.P(expr.P(expr.V("x"), 4), 3), expr.V("y")),
		expr.Prod(expr.C(7), expr.P(expr.V("y"), 3)),
		expr.Neg{Operand: expr.V("x")},
	)
	c2 := FromExpr("mixed-pow", -1, e2, nil)
	evalBoth(t, c2, randomBlock(rng, c2, 20)...)
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

// TestCompileCaching: Compile must return the same program pointer on reuse.
func TestCompileCaching(t *testing.T) {
	c := VanillaGate()
	if c.Compile() != c.Compile() {
		t.Fatal("Compile does not cache")
	}
}
