package main

import (
	"fmt"
	"math/rand"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/service"
)

// Every input is a function of the run's seed and nothing else; the program
// under test only ever sees what these generators return. Each input class
// draws from its own stream so that adding a draw to one does not shift
// another.
const (
	streamSRS = iota
	streamCircuit
	streamTables
)

func subSeed(seed int64, stream int) int64 { return seed*8 + int64(stream) }

// chainGates is the 40 000-gate chain of BENCH_pr2–8 at logGates 16 and the
// same 61% fill at every other size.
func chainGates(lg int) int {
	if lg >= 16 {
		return 40000 << uint(lg-16)
	}
	return 40000 >> uint(16-lg)
}

// vanillaOps is the surface the public zkphire.CircuitBuilder and the
// internal gates.VanillaBuilder share, so one generator drives both and the
// replay proves the very circuit the public API compiled.
type vanillaOps interface {
	Add(a, b gates.Variable) gates.Variable
	Mul(a, b gates.Variable) gates.Variable
}

// jellyfishOps is the same for the Jellyfish builders.
type jellyfishOps interface {
	vanillaOps
	Power5(a gates.Variable) gates.Variable
	DoubleMulAdd(a, b, d, e gates.Variable) gates.Variable
}

// secretValue is the chain's seeded witness root.
func secretValue(seed int64) uint64 {
	return 2 + uint64(rand.New(rand.NewSource(subSeed(seed, streamCircuit))).Int63n(1<<40))
}

// buildVanillaChain emits the Mul/Add chain: each gate multiplies or adds
// the running value and the secret, chosen by a seeded coin.
func buildVanillaChain(b vanillaOps, x gates.Variable, lg int, seed int64) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamCircuit) + 1))
	acc := x
	for i := chainGates(lg); i > 0; i-- {
		if rng.Intn(2) == 0 {
			acc = b.Mul(acc, x)
		} else {
			acc = b.Add(acc, x)
		}
	}
}

// buildJellyfishMix emits the same gate count as a seeded mix of Power5,
// DoubleMulAdd and Add rows, so the degree-7 terms of the Jellyfish gate are
// live on a third of the rows each.
func buildJellyfishMix(b jellyfishOps, x gates.Variable, lg int, seed int64) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamCircuit) + 1))
	acc, prev := x, x
	for i := chainGates(lg); i > 0; i-- {
		var next gates.Variable
		switch rng.Intn(3) {
		case 0:
			next = b.Power5(acc)
		case 1:
			next = b.DoubleMulAdd(acc, x, prev, x)
		default:
			next = b.Add(acc, x)
		}
		prev, acc = acc, next
	}
}

// additiveChainSpec is the BENCH_pr10 serving circuit: a secret k, a
// running sum of n additions of it, asserted at k·(n+1).
func additiveChainSpec(n int, seed int64) *service.CircuitSpec {
	k := secretValue(seed)
	ops := make([]service.Op, 0, n+2)
	ops = append(ops, service.Op{Op: "secret", K: k})
	for i := 1; i <= n; i++ {
		ops = append(ops, service.Op{Op: "add", A: i - 1, B: 0})
	}
	ops = append(ops, service.Op{Op: "assert_eq", A: n, K: k * uint64(n+1)})
	return &service.CircuitSpec{Program: ops}
}

// roleTables materializes one table per constituent in the shape its role
// has in the protocol (selectors 0/1, witnesses 90% sparse, eq a real eq
// table, the rest dense) — cmd/benchjson's buildRoleTables shapes.
func roleTables(c *poly.Composite, numVars int, rng *ff.Rand) []*mle.Table {
	n := 1 << uint(numVars)
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		switch c.Roles[i] {
		case poly.RoleSelector:
			evals := make([]ff.Element, n)
			for j := range evals {
				if rng.Intn(2) == 1 {
					evals[j] = ff.One()
				}
			}
			tables[i] = mle.FromEvals(evals)
		case poly.RoleWitness:
			tables[i] = mle.FromEvals(rng.SparseElements(n, 0.1))
		case poly.RoleEq:
			tables[i] = mle.Eq(rng.Elements(numVars))
		default:
			tables[i] = mle.FromEvals(rng.Elements(n))
		}
	}
	return tables
}

// satisfy overwrites one column of tables so that c vanishes on every row,
// which is what lets VerifyZero accept the sweep's proofs. The column is a
// variable v that occurs in exactly one term, to the first power: with that
// term written coeff·v·rest, each row sets v = −c(v=0)/(coeff·rest). The
// solved column comes out dense whatever its role was.
func satisfy(c *poly.Composite, tables []*mle.Table) error {
	v, term := solvable(c)
	if v < 0 {
		return fmt.Errorf("composite %s has no variable to solve for", c.Name)
	}
	n := tables[0].Size()
	row := make([]ff.Element, len(tables))
	num := make([]ff.Element, n)
	den := make([]ff.Element, n)
	for x := 0; x < n; x++ {
		for i, t := range tables {
			row[i] = t.Evals[x]
		}
		row[v].SetZero()
		num[x] = c.Evaluate(row)
		den[x] = c.Terms[term].Coeff
		for _, f := range c.Terms[term].Factors {
			if f.Var == v {
				continue
			}
			for p := 0; p < f.Power; p++ {
				den[x].Mul(&den[x], &row[f.Var])
			}
		}
		if den[x].IsZero() {
			return fmt.Errorf("composite %s: row %d cannot be solved for %s", c.Name, x, c.VarNames[v])
		}
	}
	ff.BatchInvert(den)
	out := make([]ff.Element, n)
	for x := range out {
		out[x].Mul(&num[x], &den[x])
		out[x].Neg(&out[x])
	}
	tables[v] = mle.FromEvals(out)
	return nil
}

// solvable picks the variable satisfy solves for: one that occurs in a
// single term, linearly, beside only eq factors (which are never zero), so
// every row has a solution.
func solvable(c *poly.Composite) (v, term int) {
	for cand := range c.VarNames {
		if c.Roles[cand] == poly.RoleEq {
			continue
		}
		count, at, ok := 0, -1, true
		for ti, t := range c.Terms {
			for _, f := range t.Factors {
				if f.Var != cand {
					continue
				}
				count++
				at = ti
				if f.Power != 1 {
					ok = false
				}
			}
		}
		if count != 1 || !ok {
			continue
		}
		for _, f := range c.Terms[at].Factors {
			if f.Var != cand && c.Roles[f.Var] != poly.RoleEq {
				ok = false
			}
		}
		if ok {
			return cand, at
		}
	}
	return -1, -1
}
