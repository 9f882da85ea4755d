package zkphire

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// buildCubic emits x³ + x = 30 (x = 3) through the Builder interface — the
// ONE code path both arithmetizations share.
func buildCubic(b Builder) {
	x := b.Secret(3)
	x3 := b.Mul(b.Mul(x, x), x)
	b.AssertEqualConst(b.Add(x3, x), 30)
}

func TestSessionProvesBothArithmetizations(t *testing.T) {
	srs := SetupDeterministic(8, 1)
	ctx := context.Background()
	for _, kind := range []Arithmetization{Vanilla, Jellyfish} {
		t.Run(kind.String(), func(t *testing.T) {
			b := NewBuilder(kind)
			buildCubic(b)
			compiled, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			if compiled.Arithmetization() != kind {
				t.Fatalf("compiled as %s, want %s", compiled.Arithmetization(), kind)
			}
			prover, err := NewProver(srs, compiled)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := prover.Prove(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(srs, prover.VerifyingKey(), proof); err != nil {
				t.Fatal(err)
			}
			// The session amortizes: a second proof reuses the preprocessing
			// and must still verify.
			proof2, err := prover.Prove(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(srs, prover.VerifyingKey(), proof2); err != nil {
				t.Fatal(err)
			}
			// The verifying key round-trips for both gate tags.
			vkBytes, err := prover.VerifyingKey().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			vk, err := UnmarshalVerifyingKey(vkBytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(srs, vk, proof); err != nil {
				t.Fatalf("proof rejected under decoded vk: %v", err)
			}
		})
	}
}

func TestCompileAutoSizesLogGates(t *testing.T) {
	b := NewCircuitBuilder()
	x := b.Secret(2)
	acc := x
	for i := 0; i < 9; i++ { // 9 gates > 2^3
		acc = b.Mul(acc, x)
	}
	compiled, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.LogGates() != 4 {
		t.Fatalf("auto-sized to 2^%d, want 2^4 for %d gates", compiled.LogGates(), b.GateCount())
	}
	if compiled.GateCount() != 9 {
		t.Fatalf("gate count %d, want 9", compiled.GateCount())
	}

	// Manual override grows the padding.
	compiled, err = Compile(b, WithLogGates(6))
	if err != nil {
		t.Fatal(err)
	}
	if compiled.LogGates() != 6 {
		t.Fatalf("WithLogGates(6) gave 2^%d", compiled.LogGates())
	}

	// A capacity too small for the circuit must fail.
	if _, err := Compile(b, WithLogGates(3)); err == nil {
		t.Fatal("9 gates accepted into 2^3 rows")
	}
}

// TestSetupRandomTau runs the production setup, Setup with system
// randomness, end to end at a small size: Setup → Compile → NewProver →
// Prove → Verify. Two setups must draw different trapdoors, so their
// first-level points differ (Levels[0] is G whatever τ is: eq over no
// variables is 1), and an out-of-range size is an error, not a panic.
func TestSetupRandomTau(t *testing.T) {
	srs, err := Setup(6)
	if err != nil {
		t.Fatal(err)
	}
	b := NewCircuitBuilder()
	buildCubic(b)
	compiled, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(srs, compiled)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.Prove(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(srs, prover.VerifyingKey(), proof); err != nil {
		t.Fatal(err)
	}

	other, err := Setup(6)
	if err != nil {
		t.Fatal(err)
	}
	if !srs.Levels[0][0].Equal(&other.Levels[0][0]) {
		t.Fatal("level 0 is not the generator in both setups")
	}
	for k := 1; k <= srs.MaxVars; k++ {
		if srs.Levels[k][0].Equal(&other.Levels[k][0]) {
			t.Fatalf("two setups share the first level-%d point: τ was not redrawn", k)
		}
	}
	for _, n := range []int{-1, 0, 27} {
		if _, err := Setup(n); err == nil {
			t.Fatalf("Setup(%d) returned no error", n)
		}
	}
}

func TestCompileRejectsBadWitness(t *testing.T) {
	for _, kind := range []Arithmetization{Vanilla, Jellyfish} {
		b := NewBuilder(kind)
		x := b.Secret(4) // wrong witness: 4³ + 4 ≠ 30
		x3 := b.Mul(b.Mul(x, x), x)
		b.AssertEqualConst(b.Add(x3, x), 30)
		if _, err := Compile(b); err == nil {
			t.Fatalf("%s: compiling an unsatisfied circuit should fail fast", kind)
		}
	}
}

func TestProofAndKeyRoundTripViaPublicAPI(t *testing.T) {
	srs := SetupDeterministic(8, 3)
	b := NewCircuitBuilder()
	x := b.Secret(5)
	b.AssertEqualConst(b.Mul(x, x), 25)
	compiled, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(srs, compiled)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := prover.Prove(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Prove → MarshalBinary → UnmarshalBinary → Verify.
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}

	// The verifying key round-trips too, and the decoded pair verifies —
	// the full wire path a separate verifier service exercises.
	vkBytes, err := prover.VerifyingKey().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	vk, err := UnmarshalVerifyingKey(vkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(srs, vk, &back); err != nil {
		t.Fatal(err)
	}

	// VK re-serialization is canonical.
	vkBytes2, err := vk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vkBytes, vkBytes2) {
		t.Fatal("verifying-key serialization is not canonical")
	}

	// Corrupted keys are rejected, not mis-verified.
	bad := append([]byte(nil), vkBytes...)
	bad[0] ^= 0xff
	if _, err := UnmarshalVerifyingKey(bad); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("bad vk magic: %v, want ErrWireFormat", err)
	}
	// Truncation at EVERY offset must fail — the decoder may never
	// short-read its way to a "valid" key (regression: bytes.Reader.Read
	// returns partial buffers without error).
	for cut := 0; cut < len(vkBytes); cut++ {
		if _, err := UnmarshalVerifyingKey(vkBytes[:cut]); err == nil {
			t.Fatalf("truncated vk (%d of %d bytes) accepted", cut, len(vkBytes))
		}
	}
}

// TestBatchProveConcurrent exercises the worker pool under the race
// detector (CI runs go test -race): N proofs from one preprocessing pass,
// all valid.
func TestBatchProveConcurrent(t *testing.T) {
	srs := SetupDeterministic(8, 2)
	b := NewBuilder(Jellyfish)
	buildCubic(b)
	compiled, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(srs, compiled)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	proofs, err := prover.BatchProve(context.Background(), n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(proofs) != n {
		t.Fatalf("got %d proofs, want %d", len(proofs), n)
	}
	for i, p := range proofs {
		if p == nil {
			t.Fatalf("proof %d missing", i)
		}
		if err := Verify(srs, prover.VerifyingKey(), p); err != nil {
			t.Fatalf("batch proof %d rejected: %v", i, err)
		}
	}
}

func TestBatchProveCancellation(t *testing.T) {
	srs := SetupDeterministic(8, 2)
	b := NewBuilder(Vanilla)
	buildCubic(b)
	compiled, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	prover, err := NewProver(srs, compiled)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the batch must abort, not hang
	if _, err := prover.BatchProve(ctx, 8, 2); err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if _, err := prover.Prove(ctx); err == nil {
		t.Fatal("cancelled single prove returned no error")
	}

	// Invalid batch size.
	if _, err := prover.BatchProve(context.Background(), 0, 2); err == nil {
		t.Fatal("zero-size batch accepted")
	}
}

// TestEstimatorsComparable checks the acceptance criterion: all three
// backends price the same workload through one polymorphic call, and the
// results are mutually consistent (accelerators beat the CPU; the
// fixed-function baseline rejects what it cannot run).
func TestEstimatorsComparable(t *testing.T) {
	ests := Estimators()
	if len(ests) != 3 {
		t.Fatalf("want 3 standard estimators, got %d", len(ests))
	}
	const logGates = 20
	secs := map[string]float64{}
	for _, est := range ests {
		e, err := est.EstimateProtocol(Vanilla, logGates)
		if err != nil {
			t.Fatalf("%s: %v", est.Name(), err)
		}
		if e.Seconds <= 0 {
			t.Fatalf("%s: degenerate estimate %+v", est.Name(), e)
		}
		if e.PowerW <= 0 {
			t.Fatalf("%s: missing power estimate", est.Name())
		}
		secs[est.Name()] = e.Seconds
	}
	cpu := secs["CPU (EPYC-7502, 32 threads)"]
	for name, s := range secs {
		if name != "CPU (EPYC-7502, 32 threads)" && s >= cpu {
			t.Fatalf("%s (%.4fs) should beat the CPU baseline (%.4fs)", name, s, cpu)
		}
	}

	// The fixed-function baseline refuses Jellyfish and >2^24 workloads.
	zks := NewZKSpeedEstimator()
	if _, err := zks.EstimateProtocol(Jellyfish, 20); err == nil {
		t.Fatal("zkSpeed accepted a Jellyfish workload")
	}
	if _, err := zks.EstimateProtocol(Vanilla, 26); err == nil {
		t.Fatal("zkSpeed accepted a 2^26 workload beyond its scalability limit")
	}
	if _, err := zks.EstimateSumCheck(JellyfishZeroCheckID, 20); err == nil {
		t.Fatal("zkSpeed accepted the Jellyfish ZeroCheck")
	}
	// The CPU runs everything.
	if _, err := NewCPUEstimator(4).EstimateSumCheck(JellyfishZeroCheckID, 20); err != nil {
		t.Fatal(err)
	}
}

func TestAcceleratorEstimates(t *testing.T) {
	acc := DefaultAccelerator()
	est, err := acc.EstimateSumCheck(JellyfishZeroCheckID, 24)
	if err != nil {
		t.Fatal(err)
	}
	if est.Seconds <= 0 || est.Utilization <= 0 {
		t.Fatal("degenerate sumcheck estimate")
	}
	// Regression: EstimateSumCheck must report power, like EstimateProtocol.
	if est.PowerW <= 0 {
		t.Fatal("EstimateSumCheck left PowerW zero")
	}
	full, err := acc.EstimateProtocol(Jellyfish, 24)
	if err != nil {
		t.Fatal(err)
	}
	if full.Seconds <= est.Seconds {
		t.Fatal("full protocol must cost more than one sumcheck")
	}
	if full.AreaMM2 < 200 || full.AreaMM2 > 400 {
		t.Fatalf("Table V design area %.1f mm² out of range", full.AreaMM2)
	}
	if _, err := acc.EstimateSumCheck(99, 20); err == nil {
		t.Fatal("unknown constraint accepted")
	}
}
