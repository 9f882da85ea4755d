package hyperplonk

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/pcs"
	"zkphire/internal/sumcheck"
)

var testSRS = pcs.SetupDeterministic(9, 777)

// buildVanillaCircuit proves knowledge of x with x³ + x + 5 = 35.
func buildVanillaCircuit(t testing.TB, x uint64, numVars int) *gates.Circuit {
	t.Helper()
	b := gates.NewVanillaBuilder()
	xv := b.NewVariable(ff.NewElement(x))
	x2 := b.Mul(xv, xv)
	x3 := b.Mul(x2, xv)
	s := b.Add(x3, xv)
	out := b.AddConst(s, ff.NewElement(5))
	b.AssertConst(out, ff.NewElement(35))
	c, err := b.Build(numVars)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildJellyfishCircuit(t testing.TB, numVars int) *gates.Circuit {
	t.Helper()
	b := gates.NewJellyfishBuilder()
	x := b.NewVariable(ff.NewElement(3))
	y := b.Power5(x) // 243
	z := b.Mul(y, x) // 729
	w := b.Add(z, y) // 972
	b.AssertConst(w, ff.NewElement(972))
	c, err := b.Build(numVars)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied() {
		t.Fatal("jellyfish test circuit unsatisfied")
	}
	return c
}

func TestVanillaEndToEnd(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 4)
	idx, err := Preprocess(testSRS, c)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testSRS, idx, proof); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
}

func TestJellyfishEndToEnd(t *testing.T) {
	c := buildJellyfishCircuit(t, 4)
	idx, err := Preprocess(testSRS, c)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testSRS, idx, proof); err != nil {
		t.Fatalf("honest jellyfish proof rejected: %v", err)
	}
}

func TestLargerCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b := gates.NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(2))
	acc := x
	for i := 0; i < 100; i++ {
		acc = b.Mul(acc, x)
		acc = b.Add(acc, x)
	}
	c, err := b.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Preprocess(testSRS, c)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testSRS, idx, proof); err != nil {
		t.Fatalf("larger circuit proof rejected: %v", err)
	}
}

func TestWrongWitnessRejected(t *testing.T) {
	// x = 4 does not satisfy x³ + x + 5 = 35; the prover still runs (it is
	// honest-process, dishonest-witness) and the verifier must reject.
	c := buildVanillaCircuit(t, 4, 4)
	if c.Satisfied() {
		t.Fatal("setup broken: circuit should be unsatisfied")
	}
	idx, err := Preprocess(testSRS, c)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testSRS, idx, proof); err == nil {
		t.Fatal("proof for wrong witness accepted")
	}
}

func TestTamperedWireCommitmentRejected(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 4)
	idx, _ := Preprocess(testSRS, c)
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	proof.WireComms[0], proof.WireComms[1] = proof.WireComms[1], proof.WireComms[0]
	if err := Verify(testSRS, idx, proof); err == nil {
		t.Fatal("tampered wire commitments accepted")
	}
}

func TestTamperedEvalsRejected(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 4)
	idx, _ := Preprocess(testSRS, c)
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oneE := ff.One()
	proof.WirePermEvals[0].Add(&proof.WirePermEvals[0], &oneE)
	if err := Verify(testSRS, idx, proof); err == nil {
		t.Fatal("tampered perm evaluation accepted")
	}
}

func TestTamperedVEvalsRejected(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 4)
	idx, _ := Preprocess(testSRS, c)
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oneE := ff.One()
	proof.VEvals[0].Add(&proof.VEvals[0], &oneE)
	if err := Verify(testSRS, idx, proof); err == nil {
		t.Fatal("tampered product-tree evaluation accepted")
	}
}

func TestTamperedOpeningRejected(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 4)
	idx, _ := Preprocess(testSRS, c)
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oneE := ff.One()
	proof.OpenMain.PolyEvals[2].Add(&proof.OpenMain.PolyEvals[2], &oneE)
	if err := Verify(testSRS, idx, proof); err == nil {
		t.Fatal("tampered opening evaluation accepted")
	}
}

// TestTamperedZeroCheckMessageRejected shifts q(0) of one round of each
// ZeroCheck. The verifier derives q(1) from the running claim, so the
// shifted message's implied s(0)+s(1) with the honest q(1) is not the
// claim; the proof must fail both in memory and after a trip over the
// wire.
func TestTamperedZeroCheckMessageRejected(t *testing.T) {
	oneE := ff.One()
	for _, zc := range []struct {
		name string
		get  func(*Proof) *sumcheck.ZeroCheckProof
	}{
		{"gate", func(p *Proof) *sumcheck.ZeroCheckProof { return p.GateZC }},
		{"perm", func(p *Proof) *sumcheck.ZeroCheckProof { return p.PermZC }},
	} {
		for _, round := range []int{0, 3} {
			proof, idx := makeProof(t)
			q := zc.get(proof).Inner.RoundEvals[round]
			q[0].Add(&q[0], &oneE)
			if err := Verify(testSRS, idx, proof); err == nil {
				t.Fatalf("%s round %d: shifted q verified in memory", zc.name, round)
			}
			data, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Proof
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if err := Verify(testSRS, idx, &back); err == nil {
				t.Fatalf("%s round %d: shifted q verified from the wire", zc.name, round)
			}
		}
	}
}

func TestCopyConstraintViolationRejected(t *testing.T) {
	// Build an honest circuit, then corrupt one wired slot so gates hold
	// locally but copies do not.
	c := buildVanillaCircuit(t, 3, 4)
	// Slot (col 0, row 1) carries x² into the second Mul; replace both the
	// gate-local values consistently so the gate still holds but the copy
	// to the producing gate's output is broken.
	bad := ff.NewElement(49)
	c.Wires[0].Evals[1] = bad // in1 of gate 1 (x2)
	var prod ff.Element
	x := c.Wires[1].Evals[1]
	prod.Mul(&bad, &x)
	c.Wires[2].Evals[1] = prod // out of gate 1 adjusted so the gate holds
	// Gate 2 (Add) consumes x3: keep its inputs as produced.
	c.Wires[0].Evals[2] = prod
	var sum ff.Element
	sum.Add(&prod, &c.Wires[1].Evals[2])
	c.Wires[2].Evals[2] = sum
	// Remaining gates now violate AssertConst... ensure at least copies fail:
	if c.CopySatisfied() {
		t.Skip("corruption did not break a copy constraint")
	}
	idx, _ := Preprocess(testSRS, c)
	proof, err := Prove(context.Background(), testSRS, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testSRS, idx, proof); err == nil {
		t.Fatal("copy-violating witness accepted")
	}
}

// TestProofByteBudget accounts for every byte a proof puts on the wire:
// the magic, one uvarint per list length and commitment size, 48 bytes per
// point and 32 per scalar, counted from the proof's own lists. A format
// change has to change this count.
func TestProofByteBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *gates.Circuit
	}{
		{"vanilla/nv=4", buildVanillaCircuit(t, 3, 4)},
		{"jellyfish/nv=5", buildJellyfishCircuit(t, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := Preprocess(testSRS, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := Prove(context.Background(), testSRS, idx, tc.c, Config{})
			if err != nil {
				t.Fatal(err)
			}
			data, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var varints, points, scalars int
			uvarint := func(n int) {
				var tmp [binary.MaxVarintLen64]byte
				varints += binary.PutUvarint(tmp[:], uint64(n))
			}
			list := func(n int) { uvarint(n); scalars += n }
			zc := func(s *sumcheck.Proof) {
				uvarint(len(s.RoundEvals))
				for _, r := range s.RoundEvals {
					list(len(r))
				}
			}
			open := func(o *OpenProof) {
				zc(o.Sumcheck)
				list(len(o.PolyEvals))
				uvarint(len(o.PCS.Qs))
				points += len(o.PCS.Qs)
			}
			uvarint(len(proof.WireComms))
			for _, c := range proof.WireComms {
				uvarint(c.NumVars)
			}
			uvarint(proof.VComm.NumVars)
			points += len(proof.WireComms) + 1
			zc(proof.GateZC.Inner)
			list(len(proof.GateEvals))
			zc(proof.PermZC.Inner)
			list(len(proof.VEvals))
			list(len(proof.WirePermEvals))
			list(len(proof.SigmaPermEvals))
			open(proof.OpenMain)
			open(proof.OpenV)

			want := len(proofMagic) + varints + 48*points + 32*scalars
			if len(data) != want {
				t.Fatalf("proof is %d bytes, its lists account for %d", len(data), want)
			}
			t.Logf("%d B = %d magic + %d varint + %d points × 48 + %d scalars × 32",
				len(data), len(proofMagic), varints, points, scalars)
		})
	}
}

// TestVerifyRejectsUndersizedSRS: a proof checked against an SRS too
// small for its circuit is rejected with the sizes named, not a panic.
func TestVerifyRejectsUndersizedSRS(t *testing.T) {
	srs := pcs.SetupDeterministic(6, 1)
	c := buildVanillaCircuit(t, 3, 5)
	idx, err := Preprocess(srs, c)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(context.Background(), srs, idx, c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = Verify(pcs.SetupDeterministic(4, 1), idx, proof)
	if err == nil || !strings.Contains(err.Error(), "SRS supports 4 vars") {
		t.Fatalf("verify against a 4-variable SRS = %v, want an error naming its size", err)
	}
}

func TestIndexMismatchRejected(t *testing.T) {
	c1 := buildVanillaCircuit(t, 3, 4)
	c2 := buildJellyfishCircuit(t, 4)
	idx2, _ := Preprocess(testSRS, c2)
	if _, err := Prove(context.Background(), testSRS, idx2, c1, Config{}); err == nil {
		// Prove may succeed structurally only if tables bind; if it does,
		// verification must fail.
		t.Log("prove with mismatched index unexpectedly succeeded")
	}
}

func BenchmarkProveVanilla2_8(b *testing.B) {
	bld := gates.NewVanillaBuilder()
	x := bld.NewVariable(ff.NewElement(2))
	acc := x
	for i := 0; i < 100; i++ {
		acc = bld.Mul(acc, x)
	}
	c, err := bld.Build(8)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Preprocess(testSRS, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prove(context.Background(), testSRS, idx, c, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
