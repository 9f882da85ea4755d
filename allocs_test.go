package zkphire

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// steadyStateTables is how many table-sized buffers a warm proof may still
// allocate: the per-proof garbage the collector must chase is a few tables
// at most, whatever the circuit's column count.
const steadyStateTables = 4

// TestProveSteadyStateAllocs pins what a warm Prove allocates. Every
// per-proof table — the permutation argument's N_j, D_j, product tree and
// views, the rebuilt σ of a budgeted session, the OpenCheck eq tables, the
// combined opening table, the spill reader's page frame — comes from the
// parallel arenas and goes back when its step ends, so after two warm-up
// proofs a proof allocates only small bookkeeping (proof messages,
// transcript, the kernels' closures) and no table-sized buffers. The bound
// is derived from one 2^lg table: steadyStateTables of them.
//
// The collector is paused around the measured proofs only: a collection
// during them empties the arenas' sync.Pools and the refills would be
// counted against the prover. The test takes the least of the measured
// proofs, because sync.Pool keeps one buffer per P out of other Ps' reach:
// a goroutine that migrates between a Put and the next Get misses the pool
// and allocates a buffer, which then stays pooled, so such misses die out
// over a few proofs but may land in any of them. A table the prover
// allocates per proof shows in every proof, the least included.
func TestProveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates on its own")
	}
	const lg, proofs = 12, 7
	const tableBytes = (1 << lg) * 32 // one ff.Element table
	for _, tc := range []struct {
		name string
		kind Arithmetization
		opts []ProverOption
	}{
		{"vanilla/incore", Vanilla, nil},
		{"jellyfish/budgeted", Jellyfish, []ProverOption{WithMemoryBudget(16 << 20)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.kind)
			x := b.Secret(3)
			acc := x
			for i := 0; i < (1<<lg)*3/5; i++ {
				if i%2 == 0 {
					acc = b.Mul(acc, x)
				} else {
					acc = b.Add(acc, x)
				}
			}
			compiled, err := Compile(b, WithLogGates(lg))
			if err != nil {
				t.Fatal(err)
			}
			srs := SetupDeterministic(lg+1, 47)
			defer srs.CloseBacking()
			p, err := NewProver(srs, compiled, append(tc.opts, WithWorkers(2))...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for range 2 {
				if _, err := p.Prove(ctx); err != nil {
					t.Fatal(err)
				}
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := make([]uint64, proofs)
			for i := range allocs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := p.Prove(ctx); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				allocs[i] = after.TotalAlloc - before.TotalAlloc
			}
			perProof, most := slices.Min(allocs), slices.Max(allocs)
			t.Logf("%d KiB allocated per proof (%.1f tables of %d KiB); the most was %d KiB",
				perProof>>10, float64(perProof)/tableBytes, tableBytes>>10, most>>10)
			if perProof > steadyStateTables*tableBytes {
				t.Fatalf("a warm proof allocates %d KiB, over %d tables' worth (%d KiB)",
					perProof>>10, steadyStateTables, steadyStateTables*tableBytes>>10)
			}
		})
	}
}
