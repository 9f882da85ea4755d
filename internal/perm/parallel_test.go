package perm

import (
	"fmt"
	"math/rand"
	"testing"

	"zkphire/internal/cpu/cputest"
	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// TestBuildWorkersMatchesSerial checks every table of the argument —
// numerators, denominators, ϕ, the product tree, and the index views — is
// identical to the serial construction for every budget, at a size that
// forces the engine to split.
func TestBuildWorkersMatchesSerial(t *testing.T) {
	const nv = 13
	rng := ff.NewRand(51)
	k := 3
	wires := make([]*mle.Table, k)
	for j := range wires {
		wires[j] = mle.FromEvals(rng.Elements(1 << nv))
	}
	p := Identity(k, 1<<nv)
	p.AddCycle([]int{0, 1 << nv, 2 << nv})
	p.AddCycle([]int{5, 17})
	// Copy-constrained positions must hold equal values for Π ϕ = 1.
	wires[1].Evals[0] = wires[0].Evals[0]
	wires[2].Evals[0] = wires[0].Evals[0]
	wires[0].Evals[17] = wires[0].Evals[5]
	sigma := SigmaTables(p, nv)
	beta, gamma := rng.Element(), rng.Element()

	want := BuildWorkers(wires, sigma, beta, gamma, 1)
	for _, w := range []int{2, 5, 0} {
		got := BuildWorkers(wires, sigma, beta, gamma, w)
		check := func(name string, a, b *mle.Table) {
			t.Helper()
			if a.Size() != b.Size() {
				t.Fatalf("workers=%d: %s size mismatch", w, name)
			}
			for i := range a.Evals {
				if !a.Evals[i].Equal(&b.Evals[i]) {
					t.Fatalf("workers=%d: %s differs at %d", w, name, i)
				}
			}
		}
		for j := 0; j < k; j++ {
			check("N", want.NTabs[j], got.NTabs[j])
			check("D", want.DTabs[j], got.DTabs[j])
		}
		check("Phi", want.Phi, got.Phi)
		check("V", want.V, got.V)
		check("Pi", want.Pi, got.Pi)
		check("P1", want.P1, got.P1)
		check("P2", want.P2, got.P2)
	}
	root := want.Root()
	one := ff.One()
	if !root.Equal(&one) {
		t.Fatal("identity-cycle permutation grand product is not 1")
	}
}

// TestBuildMatchesDefinition checks every N_j, D_j, ϕ and V entry against
// its definition computed with Element ops and one Inverse per entry, on
// both ff.Lanes bodies. Tables of one to four rows and the tree's levels
// of width below eight fill only part of a lane group; at nv = 12 budget 3
// cuts the rows into chunks of 1366, which end inside a lane group
// (parallel.For keeps smaller tables in one chunk).
func TestBuildMatchesDefinition(t *testing.T) {
	type grid struct{ k, nv int }
	var cases []grid
	for _, k := range []int{1, 3, 5} {
		for _, nv := range []int{0, 1, 2, 3, 4, 9, 12} {
			cases = append(cases, grid{k, nv})
		}
	}
	rng, perms := ff.NewRand(52), rand.New(rand.NewSource(52))
	type want struct {
		wires, sigma []*mle.Table
		beta, gamma  ff.Element
		n, d         [][]ff.Element
		phi, v       []ff.Element
	}
	wants := make([]want, len(cases))
	for c, g := range cases {
		n := 1 << g.nv
		w := &wants[c]
		w.beta, w.gamma = rng.Element(), rng.Element()
		p := Identity(g.k, n)
		// A random σ: the definition does not need Π ϕ = 1.
		targets := perms.Perm(g.k * n)
		for j := range p.Sigma {
			copy(p.Sigma[j], targets[j*n:(j+1)*n])
		}
		w.sigma = SigmaTables(p, g.nv)
		num, den := make([]ff.Element, n), make([]ff.Element, n)
		for x := range num {
			num[x], den[x] = ff.One(), ff.One()
		}
		for j := 0; j < g.k; j++ {
			wj := mle.FromEvals(rng.Elements(n))
			w.wires = append(w.wires, wj)
			nj, dj := make([]ff.Element, n), make([]ff.Element, n)
			for x := range nj {
				var id, t ff.Element
				id.SetUint64(uint64(j*n + x))
				t.Mul(&w.beta, &id)
				nj[x].Add(&wj.Evals[x], &t)
				nj[x].Add(&nj[x], &w.gamma)
				t.Mul(&w.beta, &w.sigma[j].Evals[x])
				dj[x].Add(&wj.Evals[x], &t)
				dj[x].Add(&dj[x], &w.gamma)
				num[x].Mul(&num[x], &nj[x])
				den[x].Mul(&den[x], &dj[x])
			}
			w.n, w.d = append(w.n, nj), append(w.d, dj)
		}
		w.phi = make([]ff.Element, n)
		for x := range w.phi {
			var inv ff.Element
			inv.Inverse(&den[x])
			w.phi[x].Mul(&num[x], &inv)
		}
		w.v = make([]ff.Element, 2*n)
		copy(w.v, w.phi)
		for j := 0; j < n-1; j++ {
			w.v[n+j].Mul(&w.v[2*j], &w.v[2*j+1])
		}
		w.v[2*n-1] = ff.One()
	}
	cputest.EachLaneBody(t, func(t *testing.T) {
		for c, g := range cases {
			w := &wants[c]
			for _, budget := range []int{1, 2, 3} {
				a := BuildWorkers(w.wires, w.sigma, w.beta, w.gamma, budget)
				check := func(name string, got *mle.Table, want []ff.Element) {
					t.Helper()
					if len(got.Evals) != len(want) {
						t.Fatalf("k=%d nv=%d budget=%d: %s has %d entries, want %d", g.k, g.nv, budget, name, len(got.Evals), len(want))
					}
					for i := range want {
						if !got.Evals[i].Equal(&want[i]) {
							t.Fatalf("k=%d nv=%d budget=%d: %s differs at %d", g.k, g.nv, budget, name, i)
						}
					}
				}
				for j := 0; j < g.k; j++ {
					check(fmt.Sprintf("N_%d", j), a.NTabs[j], w.n[j])
					check(fmt.Sprintf("D_%d", j), a.DTabs[j], w.d[j])
				}
				check("Phi", a.Phi, w.phi)
				check("V", a.V, w.v)
			}
		}
	})
}

// BenchmarkBuildWorkers builds the argument at 2^16 rows for k = 3
// (Vanilla) and k = 5 (Jellyfish) columns on every core, the bench's
// perm.build16_k3_s and perm.build16_k5_s:
//
//	go test -run '^$' -bench BuildWorkers ./internal/perm
func BenchmarkBuildWorkers(b *testing.B) {
	const nv = 16
	for _, k := range []int{3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := ff.NewRand(53)
			wires := make([]*mle.Table, k)
			for j := range wires {
				wires[j] = mle.FromEvals(rng.Elements(1 << nv))
			}
			p := Identity(k, 1<<nv)
			targets := rand.New(rand.NewSource(53)).Perm(k << nv)
			for j := range p.Sigma {
				copy(p.Sigma[j], targets[j<<nv:(j+1)<<nv])
			}
			sigma := SigmaTables(p, nv)
			beta, gamma := rng.Element(), rng.Element()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildWorkers(wires, sigma, beta, gamma, 0)
			}
		})
	}
}
