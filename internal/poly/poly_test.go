package poly

import (
	"strings"
	"testing"

	"zkphire/internal/expr"
	"zkphire/internal/ff"
)

func TestRegistryAllValid(t *testing.T) {
	for id := 0; id < NumRegistered; id++ {
		c := Registered(id)
		if err := c.Validate(); err != nil {
			t.Fatalf("poly %d invalid: %v", id, err)
		}
		if c.ID != id {
			t.Fatalf("poly %d has ID %d", id, c.ID)
		}
		if c.Degree() < 1 {
			t.Fatalf("poly %d has degree %d", id, c.Degree())
		}
	}
}

func TestRegistryDegrees(t *testing.T) {
	// Spot-check the degrees the paper's analysis depends on.
	want := map[int]int{
		0:  3, // qadd·a·b? no: qmul·a·b is degree 3
		1:  3, // A·B·ftau
		2:  2,
		20: 4, // qM·w1·w2·fr
		22: 7, // qH·w^5·fr
		24: 2,
	}
	for id, d := range want {
		c := Registered(id)
		if got := c.Degree(); got != d {
			t.Errorf("poly %d degree = %d, want %d (%s)", id, got, d, c.String())
		}
	}
	// PermChecks: ϕ·D1..Dk·fr has degree k+2.
	if got := Registered(21).Degree(); got != 5 {
		t.Errorf("poly 21 degree = %d, want 5", got)
	}
	if got := Registered(23).Degree(); got != 7 {
		t.Errorf("poly 23 degree = %d, want 7", got)
	}
}

func TestVanillaGateEvaluate(t *testing.T) {
	c := VanillaGate()
	// A multiplication gate: qM=1, qO=1, w3 = w1·w2 should give
	// qM·w1w2 − qO·w3 = 0.
	assign := make([]ff.Element, c.NumVars())
	set := func(name string, v ff.Element) {
		i := c.VarIndex(name)
		if i < 0 {
			t.Fatalf("missing var %s", name)
		}
		assign[i] = v
	}
	rng := ff.NewRand(1)
	w1, w2 := rng.Element(), rng.Element()
	var w3 ff.Element
	w3.Mul(&w1, &w2)
	set("qM", ff.One())
	set("qO", ff.One())
	set("w1", w1)
	set("w2", w2)
	set("w3", w3)
	got := c.Evaluate(assign)
	if !got.IsZero() {
		t.Fatal("satisfied multiplication gate does not evaluate to 0")
	}
	// Corrupt the output: must be nonzero.
	var bad ff.Element
	bad.Add(&w3, &w1)
	set("w3", bad)
	got = c.Evaluate(assign)
	if got.IsZero() {
		t.Fatal("corrupted gate still evaluates to 0")
	}
}

func TestJellyfishGateStructure(t *testing.T) {
	c := JellyfishGate()
	// 13 terms: 4 linear + 2 mul + 4 power-5 + output + ecc + constant.
	if c.NumTerms() != 13 {
		t.Fatalf("Jellyfish gate has %d terms, want 13", c.NumTerms())
	}
	if c.Degree() != 6 {
		t.Fatalf("Jellyfish gate degree = %d, want 6 (qH·w^5)", c.Degree())
	}
	// Power-5 hash gate: qH1=1, all else 0, w1 = x, expect x^5.
	assign := make([]ff.Element, c.NumVars())
	x := ff.NewElement(3)
	assign[c.VarIndex("qH1")] = ff.One()
	assign[c.VarIndex("w1")] = x
	got := c.Evaluate(assign)
	want := ff.NewElement(243)
	if !got.Equal(&want) {
		t.Fatalf("qH1·w1^5 = %s, want 243", got.String())
	}
}

func TestPermCheckShape(t *testing.T) {
	alpha := ff.NewElement(7)
	c := VanillaPermCheck(alpha)
	// Terms: pi·fr, p1·p2·fr, α·ϕ·D1D2D3·fr, α·N1N2N3·fr → 4 terms.
	if c.NumTerms() != 4 {
		t.Fatalf("VanillaPermCheck has %d terms, want 4", c.NumTerms())
	}
	cj := JellyfishPermCheck(alpha)
	if cj.Degree() != 7 {
		t.Fatalf("JellyfishPermCheck degree = %d, want 7", cj.Degree())
	}
	if cj.MaxDistinctVars() != 7 {
		t.Fatalf("JellyfishPermCheck max distinct vars = %d, want 7 (ϕ·D1..D5·fr)", cj.MaxDistinctVars())
	}
}

func TestHighDegreeFamily(t *testing.T) {
	for d := 2; d <= 30; d += 7 {
		c := HighDegree(d)
		if got := c.Degree(); got != d+1 {
			t.Fatalf("HighDegree(%d) degree = %d, want %d", d, got, d+1)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMulByEq(t *testing.T) {
	base := VanillaGate()
	z := base.MulByEq("fr")
	if z.NumVars() != base.NumVars()+1 {
		t.Fatal("MulByEq did not add a variable")
	}
	if z.Degree() != base.Degree()+1 {
		t.Fatal("MulByEq did not raise degree by 1")
	}
	frIdx := z.VarIndex("fr")
	if z.Roles[frIdx] != RoleEq {
		t.Fatal("fr role should be RoleEq")
	}
	for _, term := range z.Terms {
		found := false
		for _, f := range term.Factors {
			if f.Var == frIdx {
				found = true
			}
		}
		if !found {
			t.Fatal("a term is missing the eq factor")
		}
	}
}

func TestCompositeEvaluateMatchesExpr(t *testing.T) {
	rng := ff.NewRand(3)
	e := expr.Prod(expr.V("q"), expr.Minus(expr.P(expr.V("y"), 2), expr.Sum(expr.P(expr.V("x"), 3), expr.C(5))))
	c := FromExpr("curve", -1, e, nil)
	for trial := 0; trial < 20; trial++ {
		en := map[string]ff.Element{"q": rng.Element(), "x": rng.Element(), "y": rng.Element()}
		assign := make([]ff.Element, c.NumVars())
		for i, n := range c.VarNames {
			assign[i] = en[n]
		}
		want := expr.Eval(e, en)
		got := c.Evaluate(assign)
		if !got.Equal(&want) {
			t.Fatal("composite evaluation mismatch")
		}
	}
}

func TestRolesDefaulting(t *testing.T) {
	c := Registered(20) // VanillaZeroCheck
	for i, n := range c.VarNames {
		switch n {
		case "qL", "qR", "qO", "qM", "qC":
			if c.Roles[i] != RoleSelector {
				t.Errorf("%s role = %v, want selector", n, c.Roles[i])
			}
		case "w1", "w2", "w3":
			if c.Roles[i] != RoleWitness {
				t.Errorf("%s role = %v, want witness", n, c.Roles[i])
			}
		case "fr":
			if c.Roles[i] != RoleEq {
				t.Errorf("fr role = %v, want eq", c.Roles[i])
			}
		}
	}
}

func TestProductGate(t *testing.T) {
	c := ProductGate(3)
	if c.Degree() != 3 || c.NumTerms() != 1 {
		t.Fatal("ProductGate(3) shape wrong")
	}
	assign := []ff.Element{ff.NewElement(2), ff.NewElement(3), ff.NewElement(5)}
	got := c.Evaluate(assign)
	want := ff.NewElement(30)
	if !got.Equal(&want) {
		t.Fatal("ProductGate evaluation wrong")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	c := &Composite{
		Name:     "bad",
		VarNames: []string{"a"},
		Roles:    []Role{RoleWitness},
		Terms:    []Term{{Coeff: ff.One(), Factors: []Factor{{Var: 5, Power: 1}}}},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range var not caught")
	}
	c.Terms = []Term{{Coeff: ff.One(), Factors: []Factor{{Var: 0, Power: 0}}}}
	if err := c.Validate(); err == nil {
		t.Fatal("zero power not caught")
	}
	c.Terms = []Term{{Coeff: ff.One(), Factors: []Factor{{Var: 0, Power: 1}, {Var: 0, Power: 2}}}}
	if err := c.Validate(); err == nil {
		t.Fatal("repeated var not caught")
	}
}

// TestPermCheckKPinned pins the Table I PermCheck composites for the two
// wire counts the protocol uses: terms, coefficients and variable order.
func TestPermCheckKPinned(t *testing.T) {
	alpha := ff.NewElement(7)
	want := map[int][2]string{
		3: {
			"PermCheck3 = pi·fr + 52435875175126190479447740508185965837690552500527637822603658699938581184512·p1·p2·fr + 52435875175126190479447740508185965837690552500527637822603658699938581184506·N1·N2·N3·fr + 7·D1·D2·D3·phi·fr",
			"D1 D2 D3 N1 N2 N3 p1 p2 phi pi fr",
		},
		5: {
			"PermCheck5 = pi·fr + 52435875175126190479447740508185965837690552500527637822603658699938581184512·p1·p2·fr + 52435875175126190479447740508185965837690552500527637822603658699938581184506·N1·N2·N3·N4·N5·fr + 7·D1·D2·D3·D4·D5·phi·fr",
			"D1 D2 D3 D4 D5 N1 N2 N3 N4 N5 p1 p2 phi pi fr",
		},
	}
	for k, w := range want {
		c := PermCheckK(k, alpha)
		if got := c.String(); got != w[0] {
			t.Errorf("PermCheckK(%d).String() = %q, want %q", k, got, w[0])
		}
		if got := strings.Join(c.VarNames, " "); got != w[1] {
			t.Errorf("PermCheckK(%d).VarNames = %q, want %q", k, got, w[1])
		}
	}
}
