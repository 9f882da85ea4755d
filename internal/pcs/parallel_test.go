package pcs

import (
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// TestCommitWorkersBudgetIndependent checks that commitments are identical
// (as affine points, hence byte-identical on the wire) for every budget, on
// a dense table and on a mostly-0/1 one, whose window is sized by its few
// other entries.
func TestCommitWorkersBudgetIndependent(t *testing.T) {
	srs := SetupDeterministic(12, 41)
	rng := ff.NewRand(42)
	for name, tab := range map[string]*mle.Table{
		"dense":  mle.FromEvals(rng.Elements(1 << 12)),
		"sparse": mle.FromEvals(rng.SparseElements(1<<12, 0.1)),
	} {
		want, err := srs.CommitWorkers(tab, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8, 0} {
			got, err := srs.CommitWorkers(tab, w)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Point.Equal(&want.Point) {
				t.Fatalf("%s workers=%d: commitment differs", name, w)
			}
		}
	}
}

func TestOpenWorkersBudgetIndependentAndVerifies(t *testing.T) {
	srs := SetupDeterministic(12, 43)
	rng := ff.NewRand(44)
	tab := mle.FromEvals(rng.Elements(1 << 12))
	z := rng.Elements(12)

	comm, err := srs.Commit(tab)
	if err != nil {
		t.Fatal(err)
	}
	wantVal, wantProof, err := srs.OpenWorkers(tab, z, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8, 0} {
		val, proof, err := srs.OpenWorkers(tab, z, w)
		if err != nil {
			t.Fatal(err)
		}
		if !val.Equal(&wantVal) {
			t.Fatalf("workers=%d: opened value differs", w)
		}
		for i := range wantProof.Qs {
			if !proof.Qs[i].Equal(&wantProof.Qs[i]) {
				t.Fatalf("workers=%d: witness commitment %d differs", w, i)
			}
		}
		if err := srs.Verify(comm, z, val, proof); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
}

// TestCombineTablesWorkersMatchesSerial checks the lane-row combination
// against Σ coeffs[i]·tables[i] computed entry by entry with Element ops,
// on tables shorter than one lane group, of one partial block, and of
// 2^12 entries, where budget 3 ends chunks inside lane groups.
func TestCombineTablesWorkersMatchesSerial(t *testing.T) {
	rng := ff.NewRand(45)
	for _, nv := range []int{0, 2, 5, 12} {
		tables := []*mle.Table{
			mle.FromEvals(rng.Elements(1 << nv)),
			mle.FromEvals(rng.Elements(1 << nv)),
			mle.FromEvals(rng.Elements(1 << nv)),
		}
		coeffs := rng.Elements(3)
		want := make([]ff.Element, 1<<nv)
		for i, tab := range tables {
			for j := range want {
				var term ff.Element
				term.Mul(&coeffs[i], &tab.Evals[j])
				want[j].Add(&want[j], &term)
			}
		}
		for _, w := range []int{1, 2, 3, 0} {
			got, err := CombineTablesWorkers(tables, coeffs, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !got.Evals[i].Equal(&want[i]) {
					t.Fatalf("nv=%d workers=%d: mismatch at %d", nv, w, i)
				}
			}
		}
	}
}
