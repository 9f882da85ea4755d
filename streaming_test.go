// Conformance suite for the streaming out-of-core prover (PR 8): at every
// memory budget × worker budget, a session proving through the bounded-
// memory schedule — offloaded SRS, σ rebuilt per step from the circuit,
// chunk-streamed MSMs — must produce EXACTLY the bytes the in-core session
// produces. The memory
// budget may change where operands live and how kernels chunk, never a
// single field element.
package zkphire

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"zkphire/internal/membench"
)

// buildStreamingCircuit emits the benchmark circuit shape at 2^lg rows.
func buildStreamingCircuit(t testing.TB, lg int) *CompiledCircuit {
	t.Helper()
	cb := NewCircuitBuilder()
	x := cb.Secret(3)
	acc := x
	for i := 0; i < (1<<lg)*3/5; i++ {
		if i%2 == 0 {
			acc = cb.Mul(acc, x)
		} else {
			acc = cb.Add(acc, x)
		}
	}
	compiled, err := Compile(cb, WithLogGates(lg))
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// TestStreamingConformance is the byte-identity matrix. The in-core
// reference proof is produced first and its prove-time memory growth
// measured; the streamed sessions then run at an effectively unbounded
// budget, half the measured in-core growth, and an eighth of it — each at
// worker budgets 1, 2, and GOMAXPROCS — and every proof must equal the
// reference byte for byte (and still verify). Each budgeted session gets
// its own SRS from the same deterministic seed, because Offload is sticky
// and the in-core reference must stay in-core.
func TestStreamingConformance(t *testing.T) {
	const lg, seed = 10, 4242
	compiled := buildStreamingCircuit(t, lg)

	srs := SetupDeterministic(lg+1, seed)
	inCore, err := NewProver(srs, compiled)
	if err != nil {
		t.Fatal(err)
	}
	var refProof *Proof
	var proveErr error
	inCorePeak := membench.Sample(func() {
		refProof, proveErr = inCore.Prove(context.Background())
	})
	if proveErr != nil {
		t.Fatal(proveErr)
	}
	refBytes, err := refProof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := inCore.Verify(refProof); err != nil {
		t.Fatal(err)
	}
	inCoreDelta := inCorePeak.DeltaBytes()
	t.Logf("in-core prove: baseline %d KiB, peak delta %d KiB", inCorePeak.BaselineBytes>>10, inCoreDelta>>10)

	budgets := []struct {
		name  string
		bytes int64
	}{
		{"unbounded", 1 << 40},
		{"half-incore", inCoreDelta / 2},
		{"eighth-incore", inCoreDelta / 8},
	}
	workerBudgets := []int{1, 2, runtime.GOMAXPROCS(0)}

	for _, budget := range budgets {
		for _, w := range workerBudgets {
			t.Run(fmt.Sprintf("budget=%s/workers=%d", budget.name, w), func(t *testing.T) {
				srsB := SetupDeterministic(lg+1, seed)
				prover, err := NewProver(srsB, compiled, WithMemoryBudget(budget.bytes), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := prover.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
				proof, err := prover.Prove(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got, err := proof.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, refBytes) {
					t.Fatalf("streamed proof bytes differ from in-core reference (budget %d, workers %d)", budget.bytes, w)
				}
				if err := prover.Verify(proof); err != nil {
					t.Fatalf("verify: %v", err)
				}
			})
		}
	}
}

// TestStreamingSessionReuse proves twice on one budgeted session — the
// offloaded SRS must serve repeated proofs — and checks Close is the no-op it
// is documented to be: it returns nil and the earlier proofs still verify.
func TestStreamingSessionReuse(t *testing.T) {
	const lg = 8
	compiled := buildStreamingCircuit(t, lg)
	srs := SetupDeterministic(lg+1, 7)
	prover, err := NewProver(srs, compiled, WithMemoryBudget(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := prover.Prove(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := prover.Prove(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := p1.MarshalBinary()
	b2, _ := p2.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeat proofs on one budgeted session differ")
	}
	if err := prover.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, p := range []*Proof{p1, p2} {
		if err := prover.Verify(p); err != nil {
			t.Fatalf("proof %d invalid after Close: %v", i+1, err)
		}
	}
}

// TestBudgetedSessionOwnsNoFiles: a budgeted session puts nothing on disk
// of its own. The only tmp directory two proofs leave behind is the SRS
// offload's, and it goes when the SRS's backing closes.
func TestBudgetedSessionOwnsNoFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spillDirs := func() []string {
		t.Helper()
		dirs, err := filepath.Glob(filepath.Join(tmp, "zkspill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return dirs
	}

	const lg = 8
	compiled := buildStreamingCircuit(t, lg)
	srs := SetupDeterministic(lg+1, 7)
	prover, err := NewProver(srs, compiled, WithMemoryBudget(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := prover.Prove(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if dirs := spillDirs(); len(dirs) != 1 {
		t.Fatalf("budgeted session left %d spill directories %v, want 1 (the SRS offload's)", len(dirs), dirs)
	}
	if err := srs.CloseBacking(); err != nil {
		t.Fatal(err)
	}
	if dirs := spillDirs(); len(dirs) != 0 {
		t.Fatalf("%d spill directories %v outlive the SRS offload", len(dirs), dirs)
	}
}
