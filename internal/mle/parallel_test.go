package mle

import (
	"testing"

	"zkphire/internal/ff"
)

// budgets covers the serial path, a forced split, and the GOMAXPROCS
// default.
var budgets = []int{1, 2, 3, 0}

// bigTable returns a table large enough (2^13) that the engine actually
// splits it across goroutines.
func bigTable(seed int64) *Table {
	rng := ff.NewRand(seed)
	return FromEvals(rng.Elements(1 << 13))
}

func TestFoldWorkersMatchesSerial(t *testing.T) {
	rng := ff.NewRand(21)
	r := rng.Element()
	want := bigTable(20)
	want.Fold(&r)
	for _, w := range budgets {
		got := bigTable(20)
		got.FoldWorkers(&r, w)
		if got.NumVars != want.NumVars {
			t.Fatalf("w=%d: numvars %d, want %d", w, got.NumVars, want.NumVars)
		}
		for i := range want.Evals {
			if !got.Evals[i].Equal(&want.Evals[i]) {
				t.Fatalf("w=%d: fold mismatch at %d", w, i)
			}
		}
	}
}

func TestEvaluateWorkersMatchesSerial(t *testing.T) {
	rng := ff.NewRand(22)
	tab := bigTable(23)
	point := rng.Elements(tab.NumVars)
	want := tab.Evaluate(point)
	for _, w := range budgets {
		got := tab.EvaluateWorkers(point, w)
		if !got.Equal(&want) {
			t.Fatalf("w=%d: evaluate mismatch", w)
		}
	}
	// The table itself must be untouched.
	fresh := bigTable(23)
	for i := range fresh.Evals {
		if !tab.Evals[i].Equal(&fresh.Evals[i]) {
			t.Fatalf("Evaluate modified the table at %d", i)
		}
	}
}

func TestEqWorkersMatchesSerial(t *testing.T) {
	rng := ff.NewRand(24)
	r := rng.Elements(13)
	want := Eq(r)
	for _, w := range budgets {
		got := EqWorkers(r, w)
		for i := range want.Evals {
			if !got.Evals[i].Equal(&want.Evals[i]) {
				t.Fatalf("w=%d: eq mismatch at %d", w, i)
			}
		}
	}
}

// TestEvaluateWorkersZeroAlloc pins the serial EvaluateWorkers at zero
// steady-state allocations: ping-pong buffers come from the arena (whose
// Get/Put cycle recycles its slice-header boxes), and the serial fold path
// never materializes a parallel closure. Skipped under -race, where
// sync.Pool deliberately drops entries.
func TestEvaluateWorkersZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	rng := ff.NewRand(26)
	tab := FromEvals(rng.Elements(1 << 12))
	point := rng.Elements(12)
	// Warm the arena classes once.
	tab.EvaluateWorkers(point, 1)
	allocs := testing.AllocsPerRun(50, func() {
		tab.EvaluateWorkers(point, 1)
	})
	if allocs != 0 {
		t.Fatalf("EvaluateWorkers allocates %.1f objects/op, want 0", allocs)
	}
}
