// Memory-budget regression test (PR 8): an out-of-core session must prove a
// 2^18-gate circuit inside half the in-core peak RSS, byte-identically.
//
// The in-core reference run measures the process's total peak RSS around
// session build + prove (the honest number: an in-core session must keep the
// whole SRS and index resident). The streamed run then requests a memory
// budget of half that peak minus a fixed non-heap allowance — goroutine
// stacks, the binary, allocator metadata, which GOMEMLIMIT cannot see — and
// the sampled peak must stay within one spill-chunk of the request. RSS is
// sampled by internal/membench (1 ms VmRSS poller), so transient frees
// show up and the peak is the real high-water mark of the bracketed region.
package zkphire

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"

	"zkphire/internal/curve"
	"zkphire/internal/membench"
	"zkphire/internal/pcs"
)

// syntheticSRS builds an SRS whose level k holds the prefix [1·G .. 2^k·G] —
// memory- and MSM-cost-realistic without the multi-minute trusted setup.
// Each level owns its slice, so Offload genuinely frees it. The SRS carries
// no verifying trapdoor: provers run identically (commits and opening
// witnesses are G1 MSMs), but Verify would reject, so byte-identity against
// an in-core reference stands in for verification here (the streaming
// conformance suite verifies real-SRS proofs at smaller sizes).
func syntheticSRS(maxVars int) *SRS {
	g := curve.Generator()
	srs := &pcs.SRS{MaxVars: maxVars, Levels: make([][]curve.G1Affine, maxVars+1)}
	n := 1 << maxVars
	jacs := make([]curve.G1Jac, n)
	var acc curve.G1Jac
	acc.SetInfinity()
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	all := curve.BatchFromJacobianWorkers(jacs, 0)
	for k := 0; k <= maxVars; k++ {
		lvl := make([]curve.G1Affine, 1<<k)
		copy(lvl, all[:1<<k])
		srs.Levels[k] = lvl
	}
	return srs
}

const (
	// nonHeapHeadroom is subtracted from the half-peak target to form the
	// requested budget: GOMEMLIMIT governs only the Go heap, while the RSS
	// assertion sees stacks, binary text, and allocator metadata too.
	nonHeapHeadroom = 40 << 20
	// budgetSlack is the allowed overshoot of sampled peak RSS past the
	// requested budget: one streamed spill/basis chunk plus page-cache and
	// sampler jitter.
	budgetSlack = 48 << 20
)

// TestMemoryBudgetRegression is the PR 8 acceptance gate at 2^18 gates,
// the size where both assertions bite: the streamed peak stays within the
// budget and under half the in-core peak. CI runs it as make mem-smoke.
func TestMemoryBudgetRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression is a long test (minutes at logGates=18)")
	}
	if raceEnabled {
		t.Skip("race detector shadow memory invalidates RSS assertions")
	}
	const lg = 18
	compiled := buildStreamingCircuit(t, lg)

	var refBytes []byte
	var inPeak int64
	{
		srs := syntheticSRS(lg + 1)
		r := membench.Sample(func() {
			p, err := NewProver(srs, compiled)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := p.Prove(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			refBytes, err = proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
		})
		inPeak = r.PeakBytes
		t.Logf("in-core: base %d MiB, peak %d MiB", r.BaselineBytes>>20, inPeak>>20)
	}
	debug.FreeOSMemory()

	budget := inPeak/2 - nonHeapHeadroom
	srs := syntheticSRS(lg + 1)
	// Offload before sampling: a long-lived out-of-core session pays the
	// resident-SRS transient once at setup, not per proof, so the regression
	// brackets the steady state (preprocess + prove under the budget).
	if err := srs.Offload("", budget/8); err != nil {
		t.Fatal(err)
	}
	debug.FreeOSMemory()
	var gotBytes []byte
	r := membench.SampleUnderLimit(budget, func() {
		p, err := NewProver(srs, compiled, WithMemoryBudget(budget))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proof, err := p.Prove(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err = proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("streamed: budget %d MiB, base %d MiB, peak %d MiB (%.0f%% of in-core)",
		budget>>20, r.BaselineBytes>>20, r.PeakBytes>>20, 100*float64(r.PeakBytes)/float64(inPeak))

	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatal("streamed proof bytes differ from in-core reference")
	}
	if r.PeakBytes > budget+budgetSlack {
		t.Fatalf("streamed peak RSS %d MiB exceeds budget %d MiB by more than the %d MiB slack",
			r.PeakBytes>>20, budget>>20, int64(budgetSlack)>>20)
	}
	if r.PeakBytes > inPeak/2 {
		t.Fatalf("streamed peak RSS %d MiB is over half the in-core peak %d MiB — the out-of-core schedule regressed",
			r.PeakBytes>>20, inPeak>>20)
	}
}
