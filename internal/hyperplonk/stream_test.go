package hyperplonk

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestProofBytesGoldenStreamed proves the PR 4 golden circuits through the
// full bounded-memory stack — offloaded SRS, spilled σ tables, a memory
// budget — and pins the SAME sha256 digests as TestProofBytesGoldenPR4:
// the budgeted prover must be byte-identical to the in-core one, and both
// must still match the wire format captured two generations ago.
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
				t.Fatal("spilled index still holds resident σ tables")
			}
			if len(idx.SigmaSpill) != idx.Wires {
				t.Fatalf("%d spilled σ handles for %d wires", len(idx.SigmaSpill), idx.Wires)
			}

			// A spilled index without a budget must refuse, not misprove.
			if _, err := Prove(context.Background(), srs, idx, c, Config{Workers: 1}); err == nil {
				t.Fatal("Prove on a spilled index without a memory budget succeeded")
			}

			proof, err := Prove(context.Background(), srs, idx, c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != g.size {
				t.Fatalf("proof size %d, want %d", len(b), g.size)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != g.sha {
				t.Fatalf("streamed proof bytes diverged from the PR 4 golden:\n got %s\nwant %s", got, g.sha)
			}
			if err := Verify(srs, idx, proof); err != nil {
				t.Fatalf("verify streamed proof: %v", err)
			}
		})
	}
}

// TestStreamedInCoreIndex checks a memory budget on a fully resident
// index/SRS (MemoryBudget set, nothing offloaded) still produces the
// in-core bytes — the residency policy alone must not change the proof.
func TestStreamedInCoreIndex(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 5)
	idx, err := PreprocessWorkers(testSRS, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Prove(context.Background(), testSRS, idx, c, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		got, err := Prove(context.Background(), testSRS, idx, c, Config{Workers: w, MemoryBudget: 1 << 30})
		if err != nil {
			t.Fatalf("streamed workers=%d: %v", w, err)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotBytes) != string(refBytes) {
			t.Fatalf("streamed proof (workers=%d, resident index) differs from in-core", w)
		}
	}
}
