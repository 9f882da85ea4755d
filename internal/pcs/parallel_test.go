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

func TestCombineTablesWorkersMatchesSerial(t *testing.T) {
	rng := ff.NewRand(45)
	tables := []*mle.Table{
		mle.FromEvals(rng.Elements(1 << 12)),
		mle.FromEvals(rng.Elements(1 << 12)),
		mle.FromEvals(rng.Elements(1 << 12)),
	}
	coeffs := rng.Elements(3)
	want, err := CombineTables(tables, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 0} {
		got, err := CombineTablesWorkers(tables, coeffs, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Evals {
			if !got.Evals[i].Equal(&want.Evals[i]) {
				t.Fatalf("workers=%d: mismatch at %d", w, i)
			}
		}
	}
}
