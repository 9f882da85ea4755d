package hyperplonk

import (
	"context"
	"fmt"
	"testing"
)

// TestProofBytesGoldenStreamed proves the PR 4 golden circuits through the
// full bounded-memory stack — offloaded SRS, no resident σ tables (each
// step that reads σ rebuilds it from the circuit) — and expects
// the SAME sha256 digests as TestProofBytesGoldenPR4: the budgeted prover
// must be byte-identical to the in-core one, and both must still match the
// wire format captured two generations ago.
//
// A fresh SRS per case (same SetupDeterministic parameters as testSRS)
// keeps the shared in-core SRS untouched: Offload is sticky.
func TestProofBytesGoldenStreamed(t *testing.T) {
	for _, g := range goldenProofs {
		t.Run(fmt.Sprintf("%s/nv=%d", g.name, g.numVars), func(t *testing.T) {
			var c = buildVanillaCircuit(t, 3, g.numVars)
			if g.name == "jellyfish" {
				c = buildJellyfishCircuit(t, g.numVars)
			}
			srs, idx, cfg := residency{"budgeted", true}.setup(t, testSRS.MaxVars, c)
			cfg.Workers = 1
			if idx.SigmaTabs != nil {
				t.Fatal("budgeted index still holds resident σ tables")
			}

			proof, err := Prove(context.Background(), srs, idx, c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g, proof)
			if err := Verify(srs, idx, proof); err != nil {
				t.Fatalf("verify streamed proof: %v", err)
			}
		})
	}
}
