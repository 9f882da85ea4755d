package pcs

import (
	"context"
	"errors"
	"sync"
	"testing"

	"zkphire/internal/curve"
	"zkphire/internal/faultinject"
	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// TestOffloadByteIdentical offloads an SRS mid-test and checks that every
// commit/open path produces results identical to the in-core ones computed
// moments before on the same (then-resident) levels. maxVars 13 makes the
// top level ~1.2 MB in RAM — larger than half the minimum budget — so the
// top-level commitment exercises the chunk-streamed MSM, while the opening
// chain's shrinking levels stay resident.
func TestOffloadByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("offload identity test builds a 2^13 SRS")
	}
	const nv = 13
	srs := SetupDeterministic(nv, 99)
	rng := ff.NewRand(123)
	dense := mle.FromEvals(rng.Elements(1 << nv))
	sparse := mle.New(nv)
	for i := 0; i < len(sparse.Evals); i += 17 {
		sparse.Evals[i] = rng.Element()
	}
	z := rng.Elements(nv)

	denseComm, err := srs.Commit(dense)
	if err != nil {
		t.Fatal(err)
	}
	sparseComm, err := srs.Commit(sparse)
	if err != nil {
		t.Fatal(err)
	}
	openVal, openProof, err := srs.Open(dense, z)
	if err != nil {
		t.Fatal(err)
	}

	if err := srs.Offload(t.TempDir(), 1); err != nil { // clamps to the 2 MiB floor
		t.Fatalf("Offload: %v", err)
	}
	if srs.Levels[nv] != nil {
		t.Fatal("top level still resident after Offload")
	}
	// The resident levels together fit the budget.
	var resident int64
	for k := range srs.Levels {
		if srs.Levels[k] != nil {
			resident += levelMemBytes(k)
		}
	}
	if resident > minBudget {
		t.Fatalf("resident levels take %d bytes, budget %d", resident, minBudget)
	}

	denseComm2, err := srs.Commit(dense)
	if err != nil {
		t.Fatalf("backed dense commit: %v", err)
	}
	if !denseComm2.Point.Equal(&denseComm.Point) {
		t.Fatal("backed dense commitment differs from in-core")
	}
	sparseComm2, err := srs.CommitCtx(context.Background(), sparse, 2)
	if err != nil {
		t.Fatalf("backed sparse commit: %v", err)
	}
	if !sparseComm2.Point.Equal(&sparseComm.Point) {
		t.Fatal("backed sparse commitment differs from in-core")
	}

	openVal2, openProof2, err := srs.OpenWorkers(dense, z, 2)
	if err != nil {
		t.Fatalf("backed open: %v", err)
	}
	if !openVal2.Equal(&openVal) {
		t.Fatal("backed opening value differs")
	}
	for i := range openProof.Qs {
		if !openProof2.Qs[i].Equal(&openProof.Qs[i]) {
			t.Fatalf("backed witness commitment %d differs", i)
		}
	}
	if err := srs.Verify(denseComm2, z, openVal2, openProof2); err != nil {
		t.Fatalf("verify on backed SRS: %v", err)
	}

	// Streamed commitment over backed basis: feed out-of-order segments of
	// mixed sizes (chunked partial MSMs + the gather path).
	sc, err := srs.CommitStream(nv)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << nv
	segs := [][2]int{{n / 2, n}, {100, n / 2}, {0, 100}}
	for _, seg := range segs {
		if err := sc.Feed(context.Background(), seg[0], dense.Evals[seg[0]:seg[1]], 2); err != nil {
			t.Fatalf("Feed(%v): %v", seg, err)
		}
	}
	streamComm, err := sc.Finish(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !streamComm.Point.Equal(&denseComm.Point) {
		t.Fatal("streamed commitment on backed SRS differs from in-core")
	}

	// Concurrent backed commits each stream their own chunks and agree with
	// the in-core result.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	comms := make([]Commitment, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comms[i], errs[i] = srs.CommitWorkers(dense, 1)
		}(i)
	}
	wg.Wait()
	for i := range comms {
		if errs[i] != nil {
			t.Fatalf("concurrent commit %d: %v", i, errs[i])
		}
		if !comms[i].Point.Equal(&denseComm.Point) {
			t.Fatalf("concurrent commit %d differs", i)
		}
	}

	// After CloseBacking, offloaded levels error out — no panics.
	if err := srs.CloseBacking(); err != nil {
		t.Fatalf("CloseBacking: %v", err)
	}
	if _, err := srs.Commit(dense); err == nil {
		t.Fatal("commit on closed backing succeeded")
	}
}

// TestOffloadIdempotent checks double-Offload is a no-op and small levels
// stay resident.
func TestOffloadIdempotent(t *testing.T) {
	srs := SetupDeterministic(8, 5)
	if err := srs.Offload(t.TempDir(), 64<<20); err != nil {
		t.Fatal(err)
	}
	// 2^8 levels all fit half the budget: everything stays resident.
	for k := range srs.Levels {
		if srs.Levels[k] == nil {
			t.Fatalf("small level %d offloaded", k)
		}
	}
	if err := srs.Offload(t.TempDir(), 1<<20); err != nil {
		t.Fatalf("second Offload: %v", err)
	}
	rng := ff.NewRand(1)
	tab := mle.FromEvals(rng.Elements(1 << 8))
	if _, err := srs.Commit(tab); err != nil {
		t.Fatal(err)
	}
	if err := srs.CloseBacking(); err != nil {
		t.Fatal(err)
	}
}

// TestOffloadPlacement fixes the residency split at the benchmark's budget:
// a 64 MiB session hands Offload an eighth of it, which keeps levels ≤ 14
// resident and streams 15–17. Placement looks only at level sizes, so the
// levels hold zero points instead of a real setup.
func TestOffloadPlacement(t *testing.T) {
	const maxVars = 17
	srs := &SRS{MaxVars: maxVars, Levels: make([][]curve.G1Affine, maxVars+1)}
	for k := range srs.Levels {
		srs.Levels[k] = make([]curve.G1Affine, 1<<k)
	}
	if err := srs.Offload(t.TempDir(), 64<<20/8); err != nil {
		t.Fatal(err)
	}
	defer srs.CloseBacking()
	for k := range srs.Levels {
		if resident := srs.Levels[k] != nil; resident != (k <= 14) {
			t.Errorf("level %d resident = %v, want %v", k, resident, k <= 14)
		}
	}
}

// TestOffloadReadFaultIsTransient: a spill read error fails the one commit
// that hit it and leaves nothing behind — the next commit streams the level
// again and equals the in-core commitment. maxVars 13 is the smallest SRS
// whose top level streams at the minimum budget.
func TestOffloadReadFaultIsTransient(t *testing.T) {
	const nv = 13
	srs := SetupDeterministic(nv, 11)
	tab := mle.FromEvals(ff.NewRand(3).Elements(1 << nv))
	want, err := srs.Commit(tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := srs.Offload(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	defer srs.CloseBacking()

	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm("pcs.offload.read", faultinject.Fault{Mode: faultinject.ModeError, Count: 1})
	if _, err := srs.CommitCtx(context.Background(), tab, 2); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("first commit = %v, want the injected read error", err)
	}
	got, err := srs.CommitCtx(context.Background(), tab, 2)
	if err != nil {
		t.Fatalf("commit after a transient read failure: %v", err)
	}
	if !got.Point.Equal(&want.Point) {
		t.Fatal("commit after a transient read failure differs from in-core")
	}
}

// TestOffloadStreamedMSMMatchesInCore: offloaded commits and openings equal
// the in-core ones, for a dense table and for a sparse one (mostly 0/1, so
// the streamed MSM skips zeros and sums ones on the side), at the 2 MiB
// floor (4 096-point chunks; a 2^14 SRS streams levels 13 and 14, the
// opening's first witness MSM on 13) and at the benchmark's 8 MiB SRS share
// (6 898-point chunks, which divide no level; a 2^16 SRS streams 15 and 16).
func TestOffloadStreamedMSMMatchesInCore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^16 SRS")
	}
	for _, tc := range []struct {
		nv     int
		budget int64
		chunk  int
	}{{14, 1, 4096}, {16, 8 << 20, 6898}} {
		srs := SetupDeterministic(tc.nv, 77)
		rng := ff.NewRand(78)
		dense := mle.FromEvals(rng.Elements(1 << tc.nv))
		sparse := mle.New(tc.nv)
		for i := range sparse.Evals {
			switch {
			case i%7 == 0:
				sparse.Evals[i] = rng.Element()
			case i%3 == 0:
				sparse.Evals[i] = ff.One()
			}
		}
		z := rng.Elements(tc.nv)
		run := func() (out []curve.G1Affine, vals []ff.Element) {
			for _, tab := range []*mle.Table{dense, sparse} {
				c, err := srs.CommitCtx(context.Background(), tab, 2)
				if err != nil {
					t.Fatal(err)
				}
				v, proof, err := srs.OpenWorkers(tab, z, 2)
				if err != nil {
					t.Fatal(err)
				}
				out = append(append(out, c.Point), proof.Qs...)
				vals = append(vals, v)
			}
			return out, vals
		}
		want, wantVals := run()
		if err := srs.Offload(t.TempDir(), tc.budget); err != nil {
			t.Fatal(err)
		}
		if srs.back.chunkElems != tc.chunk || srs.Levels[tc.nv] != nil || srs.Levels[tc.nv-1] != nil {
			t.Fatalf("nv=%d: chunk %d, top levels resident %v/%v; want chunk %d, both streamed",
				tc.nv, srs.back.chunkElems, srs.Levels[tc.nv] != nil, srs.Levels[tc.nv-1] != nil, tc.chunk)
		}
		got, gotVals := run()
		for i := range want {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("nv=%d: offloaded point %d differs from in-core", tc.nv, i)
			}
		}
		for i := range wantVals {
			if !gotVals[i].Equal(&wantVals[i]) {
				t.Fatalf("nv=%d: offloaded opening value %d differs", tc.nv, i)
			}
		}
		if err := srs.CloseBacking(); err != nil {
			t.Fatal(err)
		}
	}
}
