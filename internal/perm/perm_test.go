package perm

import (
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// makeCopyScenario builds k wire columns where some positions are
// constrained equal, with a matching permutation.
func makeCopyScenario(rng *ff.Rand, k, numVars int, honest bool) ([]*mle.Table, *Permutation) {
	n := 1 << uint(numVars)
	wires := make([]*mle.Table, k)
	for j := range wires {
		wires[j] = mle.FromEvals(rng.Elements(n))
	}
	p := Identity(k, n)
	// Tie (0, 1), (1, 2), (2, 3) into one cycle and copy the value.
	cycle := []int{0*n + 1, 1*n + 2, 2*n + 3}
	if k < 3 {
		cycle = []int{0*n + 1, 1*n + 2}
	}
	p.AddCycle(cycle)
	v := rng.Element()
	for _, pos := range cycle {
		wires[pos/n].Evals[pos%n] = v
	}
	if !honest {
		// Violate the copy constraint.
		wires[cycle[1]/n].Evals[cycle[1]%n] = rng.Element()
	}
	return wires, p
}

func TestPermutationValidate(t *testing.T) {
	p := Identity(3, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.AddCycle([]int{1, 10, 19})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt into a non-bijection.
	p.Sigma[0][0] = p.Sigma[0][1]
	if err := p.Validate(); err == nil {
		t.Fatal("non-bijection accepted")
	}
}

func TestIDTableAndEval(t *testing.T) {
	rng := ff.NewRand(1)
	numVars := 4
	id := IDTable(2, numVars)
	// Boolean consistency.
	want := ff.NewElement(2*16 + 5)
	if !id.Evals[5].Equal(&want) {
		t.Fatal("IDTable entry wrong")
	}
	// Multilinear extension agrees with closed form.
	r := rng.Elements(numVars)
	got := id.Evaluate(r)
	closed := IDEval(2, r)
	if !got.Equal(&closed) {
		t.Fatal("IDEval does not match table MLE")
	}
}

func TestHonestGrandProductIsOne(t *testing.T) {
	rng := ff.NewRand(2)
	wires, p := makeCopyScenario(rng, 3, 4, true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sigma := SigmaTables(p, 4)
	beta, gamma := rng.Element(), rng.Element()
	a := BuildWorkers(wires, sigma, beta, gamma, 1)
	root := a.Root()
	if !root.IsOne() {
		t.Fatal("grand product != 1 for satisfied copy constraints")
	}
}

func TestViolatedGrandProductNotOne(t *testing.T) {
	rng := ff.NewRand(3)
	wires, p := makeCopyScenario(rng, 3, 4, false)
	sigma := SigmaTables(p, 4)
	beta, gamma := rng.Element(), rng.Element()
	a := BuildWorkers(wires, sigma, beta, gamma, 1)
	root := a.Root()
	if root.IsOne() {
		t.Fatal("grand product is 1 despite violated copy constraint")
	}
}

func TestTreeIdentityHoldsEverywhere(t *testing.T) {
	rng := ff.NewRand(4)
	wires, p := makeCopyScenario(rng, 3, 4, true)
	sigma := SigmaTables(p, 4)
	a := BuildWorkers(wires, sigma, rng.Element(), rng.Element(), 1)
	n := 1 << 4
	// π[x] = p1[x]·p2[x] for every x, including the root slot x = N−1.
	for x := 0; x < n; x++ {
		var prod ff.Element
		prod.Mul(&a.P1.Evals[x], &a.P2.Evals[x])
		if !a.Pi.Evals[x].Equal(&prod) {
			t.Fatalf("tree identity fails at x=%d", x)
		}
	}
	// ϕ·D − N ≡ 0 columnwise-aggregated.
	for x := 0; x < n; x++ {
		nProd := ff.One()
		dProd := ff.One()
		for j := range a.NTabs {
			nProd.Mul(&nProd, &a.NTabs[j].Evals[x])
			dProd.Mul(&dProd, &a.DTabs[j].Evals[x])
		}
		var lhs ff.Element
		lhs.Mul(&a.Phi.Evals[x], &dProd)
		if !lhs.Equal(&nProd) {
			t.Fatalf("ϕ·ΠD != ΠN at x=%d", x)
		}
	}
}

func TestViewPointsMatchViews(t *testing.T) {
	rng := ff.NewRand(5)
	wires, p := makeCopyScenario(rng, 3, 4, true)
	sigma := SigmaTables(p, 4)
	a := BuildWorkers(wires, sigma, rng.Element(), rng.Element(), 1)

	r := rng.Elements(4)
	piPt, p1Pt, p2Pt, phiPt := ViewPoints(r)

	check := func(name string, view *mle.Table, pt []ff.Element) {
		want := view.Evaluate(r)
		got := a.V.Evaluate(pt)
		if !got.Equal(&want) {
			t.Fatalf("%s view point mismatch", name)
		}
	}
	check("pi", a.Pi, piPt)
	check("p1", a.P1, p1Pt)
	check("p2", a.P2, p2Pt)
	check("phi", a.Phi, phiPt)
}

func TestTwoColumnScenario(t *testing.T) {
	rng := ff.NewRand(6)
	wires, p := makeCopyScenario(rng, 2, 3, true)
	sigma := SigmaTables(p, 3)
	a := BuildWorkers(wires, sigma, rng.Element(), rng.Element(), 1)
	root := a.Root()
	if !root.IsOne() {
		t.Fatal("2-column grand product != 1")
	}
}

func TestIdentityPermutationAlwaysSatisfied(t *testing.T) {
	// With σ = id, any wire assignment satisfies the argument.
	rng := ff.NewRand(7)
	wires := []*mle.Table{
		mle.FromEvals(rng.Elements(16)),
		mle.FromEvals(rng.Elements(16)),
		mle.FromEvals(rng.Elements(16)),
	}
	p := Identity(3, 16)
	sigma := SigmaTables(p, 4)
	a := BuildWorkers(wires, sigma, rng.Element(), rng.Element(), 1)
	root := a.Root()
	if !root.IsOne() {
		t.Fatal("identity permutation should always hold")
	}
}
