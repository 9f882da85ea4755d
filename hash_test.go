package zkphire

import (
	"bytes"
	"context"
	"testing"

	"zkphire/internal/ff"
)

func compileCubic(t *testing.T, x, target uint64) *CompiledCircuit {
	t.Helper()
	b := NewBuilder(Vanilla)
	w := b.Secret(x)
	x3 := b.Mul(b.Mul(w, w), w)
	b.AssertEqualConst(b.AddConst(b.Add(x3, w), 5), target)
	compiled, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

func TestCircuitHashDeterministic(t *testing.T) {
	a := compileCubic(t, 3, 35)
	b := compileCubic(t, 3, 35)
	if a.Hash() != b.Hash() {
		t.Fatal("identical circuits hash differently")
	}
	if a.Hash().String() != b.Hash().String() {
		t.Fatal("hex form differs")
	}
	if len(a.Hash().String()) != 64 {
		t.Fatalf("hex hash length %d, want 64", len(a.Hash().String()))
	}
}

// TestCircuitHashPins builds one circuit per gate system that calls every
// public builder method and pins its hash: circuit IDs key the session cache
// and the journal, so they must not move.
func TestCircuitHashPins(t *testing.T) {
	vb := NewCircuitBuilder()
	x, y := vb.Secret(3), vb.SecretElement(ff.NewElement(5))
	s := vb.AddConst(vb.Add(vb.Mul(x, y), x), 7)
	vb.AssertEqualConst(s, 25)
	m := vb.Mul(s, y)
	vb.AssertEqualElement(m, vb.Value(m))

	jb := NewJellyfishBuilder()
	a, b := jb.Secret(2), jb.SecretElement(ff.NewElement(3))
	c := jb.AddConst(jb.Add(jb.Mul(a, b), a), 4)
	d := jb.DoubleMulAdd(a, b, c, jb.Power5(a))
	r := jb.Power5Round([4]Wire{a, b, c, d}, [4]uint64{1, 2, 3, 4}, 5)
	e := jb.EccProduct(a, b, c, r)
	jb.AssertEqualConst(c, 12)
	jb.AssertEqualElement(e, jb.Value(e))

	for _, tc := range []struct {
		b     Builder
		gates int
		want  string
	}{
		{vb, 6, "9924f75f68c8a530c49160fe88f2c17315ad897e62ff63e478cabb65f0043ef4"},
		{jb, 9, "9710581dd823c1d0de6921aa37e4c15bd99b04cc96e5e36c3c675dd7ba3ca957"},
	} {
		compiled, err := Compile(tc.b, WithLogGates(4))
		if err != nil {
			t.Fatal(err)
		}
		if compiled.GateCount() != tc.gates {
			t.Errorf("%s: %d gates, want %d", compiled.Arithmetization(), compiled.GateCount(), tc.gates)
		}
		if got := compiled.Hash().String(); got != tc.want {
			t.Errorf("%s: circuit hash %s, want %s", compiled.Arithmetization(), got, tc.want)
		}
	}
}

func TestCircuitHashDistinguishes(t *testing.T) {
	base := compileCubic(t, 3, 35)
	// A different witness value changes the wire tables, hence the hash.
	otherWitness := func() *CompiledCircuit {
		b := NewBuilder(Vanilla)
		w := b.Secret(2)
		x3 := b.Mul(b.Mul(w, w), w)
		b.AssertEqualConst(b.AddConst(b.Add(x3, w), 5), 15)
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}()
	if base.Hash() == otherWitness.Hash() {
		t.Fatal("different witnesses, same hash")
	}
	// A different padded size changes the hash too.
	padded := func() *CompiledCircuit {
		b := NewBuilder(Vanilla)
		w := b.Secret(3)
		x3 := b.Mul(b.Mul(w, w), w)
		b.AssertEqualConst(b.AddConst(b.Add(x3, w), 5), 35)
		c, err := Compile(b, WithLogGates(5))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}()
	if base.Hash() == padded.Hash() {
		t.Fatal("different padding, same hash")
	}
}

func TestProverWorkersAccessorAndOverride(t *testing.T) {
	compiled := compileCubic(t, 3, 35)
	srs := SetupDeterministic(compiled.LogGates()+1, 7)
	p, err := NewProver(srs, compiled, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", p.Workers())
	}
	if p.Compiled() != compiled {
		t.Fatal("Compiled() does not return the session's circuit")
	}
	ctx := context.Background()
	base, err := p.Prove(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// ProveWorkers overrides the budget per call; the engine's determinism
	// guarantees byte-identical proofs at any budget.
	over, err := p.ProveWorkers(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := base.MarshalBinary()
	b2, _ := over.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("proof differs across worker budgets")
	}
}
