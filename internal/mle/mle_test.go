package mle

import (
	"testing"
	"testing/quick"

	"zkphire/internal/ff"
)

func randTable(rng *ff.Rand, nv int) *Table {
	return FromEvals(rng.Elements(1 << uint(nv)))
}

func TestFoldMatchesDefinition(t *testing.T) {
	rng := ff.NewRand(1)
	tab := randTable(rng, 4)
	orig := tab.Clone()
	r := rng.Element()
	tab.Fold(&r)
	if tab.NumVars != 3 || tab.Size() != 8 {
		t.Fatal("fold did not halve")
	}
	oneE := ff.One()
	var oneMinusR ff.Element
	oneMinusR.Sub(&oneE, &r)
	for j := 0; j < 8; j++ {
		var want, t1, t2 ff.Element
		t1.Mul(&orig.Evals[2*j], &oneMinusR)
		t2.Mul(&orig.Evals[2*j+1], &r)
		want.Add(&t1, &t2)
		if !tab.Evals[j].Equal(&want) {
			t.Fatalf("fold mismatch at %d", j)
		}
	}
}

func TestEvaluateOnHypercube(t *testing.T) {
	rng := ff.NewRand(2)
	tab := randTable(rng, 5)
	// At boolean points the MLE must reproduce the table entries.
	for _, idx := range []int{0, 1, 7, 13, 31} {
		point := make([]ff.Element, 5)
		for i := 0; i < 5; i++ {
			if idx&(1<<uint(i)) != 0 {
				point[i] = ff.One()
			}
		}
		got := tab.Evaluate(point)
		if !got.Equal(&tab.Evals[idx]) {
			t.Fatalf("MLE at boolean point %d != table entry", idx)
		}
	}
}

func TestEvaluateMultilinearInEachVariable(t *testing.T) {
	// f must be degree <=1 in each variable: f(..., r, ...) linear in r.
	rng := ff.NewRand(3)
	tab := randTable(rng, 3)
	a, b := rng.Element(), rng.Element()
	var mid ff.Element
	// mid = (a+b)/2
	mid.Add(&a, &b)
	half := ff.TwoInv()
	mid.Mul(&mid, &half)

	rest := rng.Elements(2)
	eval := func(x ff.Element) ff.Element {
		return tab.Evaluate([]ff.Element{x, rest[0], rest[1]})
	}
	fa, fb, fm := eval(a), eval(b), eval(mid)
	var want ff.Element
	want.Add(&fa, &fb)
	want.Mul(&want, &half)
	if !fm.Equal(&want) {
		t.Fatal("MLE is not linear in X1")
	}
}

func TestEqTable(t *testing.T) {
	rng := ff.NewRand(4)
	r := rng.Elements(4)
	eq := Eq(r)
	if eq.Size() != 16 {
		t.Fatal("eq table size")
	}
	// Σ_x eq(x,r) = 1
	var sum ff.Element
	for i := range eq.Evals {
		sum.Add(&sum, &eq.Evals[i])
	}
	if !sum.IsOne() {
		t.Fatal("eq table does not sum to 1")
	}
	// Each entry equals EqEval at the boolean point.
	for idx := 0; idx < 16; idx++ {
		point := make([]ff.Element, 4)
		for i := 0; i < 4; i++ {
			if idx&(1<<uint(i)) != 0 {
				point[i] = ff.One()
			}
		}
		want := EqEval(point, r)
		if !eq.Evals[idx].Equal(&want) {
			t.Fatalf("eq entry %d mismatch", idx)
		}
	}
	// MLE of eq table at a random point s equals EqEval(s, r).
	s := rng.Elements(4)
	got := eq.Evaluate(s)
	want := EqEval(s, r)
	if !got.Equal(&want) {
		t.Fatal("eq MLE evaluation mismatch")
	}
}

func TestArithmeticOps(t *testing.T) {
	rng := ff.NewRand(6)
	a := randTable(rng, 3)
	b := randTable(rng, 3)
	point := rng.Elements(3)

	va, vb := a.Evaluate(point), b.Evaluate(point)

	sum := New(3)
	for i := range sum.Evals {
		sum.Evals[i].Add(&a.Evals[i], &b.Evals[i])
	}
	gotSum := sum.Evaluate(point)
	var wantSum ff.Element
	wantSum.Add(&va, &vb)
	if !gotSum.Equal(&wantSum) {
		t.Fatal("MLE addition is not pointwise") // addition commutes with MLE
	}

	c := rng.Element()
	scaled := New(3)
	for i := range scaled.Evals {
		scaled.Evals[i].Mul(&a.Evals[i], &c)
	}
	gotScaled := scaled.Evaluate(point)
	var wantScaled ff.Element
	wantScaled.Mul(&va, &c)
	if !gotScaled.Equal(&wantScaled) {
		t.Fatal("MLE scaling mismatch")
	}
}

func TestQuickFoldSumConsistency(t *testing.T) {
	// Property: folding at r=0 keeps even entries; folding at r=1 keeps odd.
	rng := ff.NewRand(8)
	prop := func(_ int) bool {
		tab := randTable(rng, 4)
		z := ff.Zero()
		t0 := tab.Clone()
		t0.Fold(&z)
		for j := 0; j < 8; j++ {
			if !t0.Evals[j].Equal(&tab.Evals[2*j]) {
				return false
			}
		}
		o := ff.One()
		t1 := tab.Clone()
		t1.Fold(&o)
		for j := 0; j < 8; j++ {
			if !t1.Evals[j].Equal(&tab.Evals[2*j+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("FromEvals non power of two", func() { FromEvals(make([]ff.Element, 3)) })
	assertPanics("FromEvals empty", func() { FromEvals(nil) })
	assertPanics("fold zero-var", func() {
		tab := New(0)
		r := ff.One()
		tab.Fold(&r)
	})
	assertPanics("evaluate arity", func() {
		tab := New(2)
		tab.Evaluate(make([]ff.Element, 3))
	})
}

func BenchmarkFold(b *testing.B) {
	rng := ff.NewRand(9)
	src := randTable(rng, 16)
	r := rng.Element()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := src.Clone()
		t.Fold(&r)
	}
}

func BenchmarkEqBuild(b *testing.B) {
	rng := ff.NewRand(10)
	r := rng.Elements(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Eq(r)
	}
}
