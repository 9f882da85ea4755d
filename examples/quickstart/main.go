// Quickstart: prove knowledge of a secret x with x³ + x + 5 = 35 through
// the session API (compile once, preprocess once, prove many times),
// round-trip the proof and verifying key through their wire encodings, and
// ask each hardware-model backend what a production-sized version of the
// same workload would cost.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"zkphire"
)

func main() {
	ctx := context.Background()

	// One-time universal setup (deterministic here for reproducibility).
	srs := zkphire.SetupDeterministic(9, 42)

	// Build the circuit. Values attached to wires form the witness. The
	// same Builder interface drives Vanilla and Jellyfish gates.
	b := zkphire.NewBuilder(zkphire.Vanilla)
	x := b.Secret(3)
	x2 := b.Mul(x, x)
	x3 := b.Mul(x2, x)
	sum := b.Add(x3, x)
	out := b.AddConst(sum, 5)
	b.AssertEqualConst(out, 35)

	// Compile checks the witness and auto-sizes the padded row count.
	compiled, err := zkphire.Compile(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %d %s gates, padded to 2^%d rows\n",
		compiled.GateCount(), compiled.Arithmetization(), compiled.LogGates())

	// NewProver preprocesses once; Prove amortizes it.
	prover, err := zkphire.NewProver(srs, compiled)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	proof, err := prover.Prove(ctx)
	if err != nil {
		log.Fatal(err)
	}
	proveTime := time.Since(start)

	// Ship the proof and verifying key over the wire and verify the decoded
	// copies — what a separate verifier service would do.
	proofBytes, err := proof.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proof generated in %v (%d bytes)\n", proveTime.Round(time.Millisecond), len(proofBytes))
	vkBytes, err := prover.VerifyingKey().MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	var decoded zkphire.Proof
	if err := decoded.UnmarshalBinary(proofBytes); err != nil {
		log.Fatal(err)
	}
	vk, err := zkphire.UnmarshalVerifyingKey(vkBytes)
	if err != nil {
		log.Fatal(err)
	}
	if err := zkphire.Verify(srs, vk, &decoded); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Printf("proof verified from %d wire bytes (vk %d bytes) ✓\n", len(proofBytes), len(vkBytes))

	// What would a production-sized version (2^24 gates) cost? One
	// polymorphic call per backend: the zkPHIRE accelerator, the zkSpeed+
	// baseline ASIC, and the paper's CPU baseline.
	fmt.Println("\nfull HyperPlonk prover, 2^24 Vanilla gates:")
	for _, est := range zkphire.Estimators() {
		e, err := est.EstimateProtocol(zkphire.Vanilla, 24)
		if err != nil {
			fmt.Printf("  %-28s n/a (%v)\n", est.Name(), err)
			continue
		}
		fmt.Printf("  %-28s %10.2f ms  %6.0f W\n", est.Name(), e.Seconds*1e3, e.PowerW)
	}
}
