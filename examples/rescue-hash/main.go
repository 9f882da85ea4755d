// Rescue-hash example: the workload class the paper's Jellyfish gate was
// designed for. A Rescue-style sponge round is dominated by x⁵ S-boxes; one
// Jellyfish gate absorbs a full S-box layer (4 power-5 terms plus the MDS
// row), where Vanilla gates would need ~5 gates per S-box alone. The example
// proves a hash-chain preimage with real Jellyfish gates through the public
// session API, then amortizes the preprocessing across a batch of proofs —
// the shape a proving service runs in production.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"zkphire"
)

// rescueRound applies one simplified Rescue round to a 4-element state:
// state'ᵢ = Σⱼ mds[i][j]·stateⱼ⁵ + rc[i]. Each output element is ONE
// Jellyfish gate.
func rescueRound(b *zkphire.JellyfishBuilder, state [4]zkphire.Wire, rc uint64) [4]zkphire.Wire {
	mds := [4][4]uint64{
		{1, 2, 3, 4},
		{4, 1, 2, 3},
		{3, 4, 1, 2},
		{2, 3, 4, 1},
	}
	var out [4]zkphire.Wire
	for i := 0; i < 4; i++ {
		out[i] = b.Power5Round(state, mds[i], rc+uint64(i))
	}
	return out
}

func main() {
	const rounds = 6
	b := zkphire.NewJellyfishBuilder()

	var state [4]zkphire.Wire
	for i := range state {
		state[i] = b.Secret(uint64(10 + i))
	}
	for r := 0; r < rounds; r++ {
		state = rescueRound(b, state, uint64(100*r))
	}
	digest := b.Value(state[0])
	b.AssertEqualElement(state[0], digest) // bind the public digest

	jellyGates := b.GateCount()
	vanillaEquivalent := rounds * 4 * 7 // ≈5 gates per x⁵ + 2 for the MDS row
	fmt.Printf("Rescue chain: %d rounds → %d Jellyfish gates (≈%d Vanilla gates, %.0fx reduction)\n",
		rounds, jellyGates, vanillaEquivalent, float64(vanillaEquivalent)/float64(jellyGates))

	// Compile auto-sizes the padded row count from the gate count.
	compiled, err := zkphire.Compile(b)
	if err != nil {
		log.Fatal(err)
	}
	srs := zkphire.SetupDeterministic(compiled.LogGates()+2, 7)

	// Preprocess ONCE; every proof afterwards reuses the committed selectors
	// and wiring permutation.
	prover, err := zkphire.NewProver(srs, compiled)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	start := time.Now()
	proof, err := prover.Prove(ctx)
	if err != nil {
		log.Fatal(err)
	}
	proveTime := time.Since(start)
	data, err := proof.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proved hash-chain preimage in %v (%d-byte proof)\n",
		proveTime.Round(time.Millisecond), len(data))
	if err := zkphire.Verify(srs, prover.VerifyingKey(), proof); err != nil {
		log.Fatal("verify: ", err)
	}
	fmt.Println("verified ✓ — the verifier learned only the digest, not the preimage")

	// A proving service amortizes the session across many requests.
	const batch = 8
	start = time.Now()
	proofs, err := prover.BatchProve(ctx, batch, 4)
	if err != nil {
		log.Fatal(err)
	}
	per := time.Since(start) / batch
	for _, p := range proofs {
		if err := zkphire.Verify(srs, prover.VerifyingKey(), p); err != nil {
			log.Fatal("batch verify: ", err)
		}
	}
	fmt.Printf("batch of %d proofs from one preprocessing pass: %v/proof, all verified ✓\n", batch, per.Round(time.Millisecond))
}
