package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// sweepGate is one constraint of the programmable-SumCheck sweep.
type sweepGate struct {
	// key is the suffix of the gate's per-layer span name.
	key    string
	comp   *poly.Composite
	assign *sumcheck.Assignment
}

// sweepInstance holds the six satisfied assignments. An operation is one
// ZeroCheck of each; its bytes are the six proofs' scalars.
type sweepInstance struct {
	lg, workers int
	gates       []sweepGate

	mu     sync.Mutex
	proofs map[[32]byte][]*sumcheck.ZeroCheckProof
}

func setupSweep(e *env) (instance, error) {
	rng := ff.NewRand(subSeed(e.seed, streamTables))
	alpha := rng.Element()
	s := &sweepInstance{lg: e.lg, workers: e.nproc, proofs: map[[32]byte][]*sumcheck.ZeroCheckProof{}}
	for _, g := range []sweepGate{
		{key: "vanilla", comp: poly.VanillaGate()},
		{key: "jellyfish", comp: poly.JellyfishGate()},
		{key: "highdeg8", comp: poly.HighDegree(8)},
		{key: "highdeg16", comp: poly.HighDegree(16)},
		{key: "permcheck3", comp: poly.PermCheckK(3, alpha)},
		{key: "permcheck5", comp: poly.PermCheckK(5, alpha)},
	} {
		tables := roleTables(g.comp, e.lg, rng)
		if err := satisfy(g.comp, tables); err != nil {
			return nil, err
		}
		var err error
		if g.assign, err = sumcheck.NewAssignment(g.comp, tables); err != nil {
			return nil, err
		}
		s.gates = append(s.gates, g)
	}
	return s, nil
}

// proveGate runs one gate's ZeroCheck on a fresh transcript.
func (s *sweepInstance) proveGate(g sweepGate, workers int) (*sumcheck.ZeroCheckProof, error) {
	proof, _, err := sumcheck.ProveZero(transcript.New("bench/sweep/"+g.key), g.assign, sumcheck.Config{Workers: workers})
	return proof, err
}

func (s *sweepInstance) op(_ context.Context, _, _ int) ([]byte, error) {
	return s.sweep(func(g sweepGate) (*sumcheck.ZeroCheckProof, error) { return s.proveGate(g, s.workers) })
}

// sweep proves every gate through prove and serializes the proofs.
func (s *sweepInstance) sweep(prove func(g sweepGate) (*sumcheck.ZeroCheckProof, error)) ([]byte, error) {
	var buf bytes.Buffer
	proofs := make([]*sumcheck.ZeroCheckProof, len(s.gates))
	for i, g := range s.gates {
		var err error
		if proofs[i], err = prove(g); err != nil {
			return nil, fmt.Errorf("%s: %w", g.key, err)
		}
		writeScalars(&buf, []ff.Element{proofs[i].Inner.Claim})
		for _, r := range proofs[i].Inner.RoundEvals {
			writeScalars(&buf, r)
		}
		writeScalars(&buf, proofs[i].Inner.FinalEvals)
	}
	out := buf.Bytes()
	s.mu.Lock()
	s.proofs[sha256.Sum256(out)] = proofs
	s.mu.Unlock()
	return out, nil
}

func writeScalars(buf *bytes.Buffer, es []ff.Element) {
	for i := range es {
		b := es[i].Bytes()
		buf.Write(b[:])
	}
}

// check replays the verifier for each of the six proofs behind out and
// checks the claimed final evaluations against the tables themselves.
func (s *sweepInstance) check(out []byte) error {
	s.mu.Lock()
	proofs := s.proofs[sha256.Sum256(out)]
	s.mu.Unlock()
	if proofs == nil {
		return fmt.Errorf("no proofs recorded for these bytes")
	}
	for i, g := range s.gates {
		p := proofs[i]
		point, want, eqVal, err := sumcheck.VerifyZero(transcript.New("bench/sweep/"+g.key), g.comp, s.lg, p)
		if err != nil {
			return fmt.Errorf("%s: %w", g.key, err)
		}
		finals := p.Inner.FinalEvals[:g.comp.NumVars()]
		if err := sumcheck.FinalCheckZero(g.comp, finals, &eqVal, &want); err != nil {
			return fmt.Errorf("%s: %w", g.key, err)
		}
		for v, t := range g.assign.Tables {
			if got := t.EvaluateWorkers(point, s.workers); !got.Equal(&finals[v]) {
				return fmt.Errorf("%s: claimed value of %s is not the table's", g.key, g.comp.VarNames[v])
			}
		}
	}
	return nil
}

func (s *sweepInstance) close() {}

var sumcheckSweep16 = &workload{
	name:    "sumcheck_sweep16",
	clients: func(*env) int { return 1 },
	setup:   setupSweep,
	trace:   traceSweep,
}

// ffMulLoop runs n dependent scalar-field multiplications.
func ffMulLoop(n int, x, y ff.Element) ff.Element {
	for i := 0; i < n; i++ {
		x.Mul(&x, &y)
	}
	return x
}

var ffSink ff.Element

// traceSweep is sumcheck_sweep16's traced run: the sweep with a span per
// gate, the Jellyfish gate again at one worker, the MLE kernels under every
// round, and the 2^18 round scan at one and at nproc workers.
func traceSweep(e *env, inst instance, tr *tracer, m values) (int, int, error) {
	s := inst.(*sweepInstance)
	start := time.Now()
	rng := ff.NewRand(subSeed(e.seed, streamTables) + 1)
	n := 1 << uint(e.lg)
	base := rng.Elements(n)
	work := make([]ff.Element, n)
	point := rng.Elements(e.lg)
	r := rng.Element()
	x, y := rng.Element(), rng.Element()

	// The BENCH_pr7 anomaly's shape: the Vanilla gate wrapped with a
	// materialized eq table, two sizes up from the sweep.
	bigLg := e.lg + 2
	bigTabs := roleTables(poly.VanillaGate(), bigLg, rng)
	bigAssign, err := sumcheck.NewAssignment(poly.VanillaGate(), bigTabs)
	if err != nil {
		return 0, 0, err
	}
	wrapped, _ := sumcheck.BuildZeroCheckAssignment(bigAssign, rng.Elements(bigLg), e.nproc)

	var jelly sweepGate
	for _, g := range s.gates {
		if g.key == "jellyfish" {
			jelly = g
		}
	}
	ops, err := rounds(start, e.seconds, e.traceRounds, func(op int) error {
		root, end := tr.begin("sumcheck.sweep", -1, op)
		out, err := s.sweep(func(g sweepGate) (*sumcheck.ZeroCheckProof, error) {
			_, endGate := tr.begin("sumcheck.provezero16_"+g.key+"_s", root, op)
			defer endGate()
			return s.proveGate(g, s.workers)
		})
		end()
		if err != nil {
			return err
		}
		if err := s.check(out); err != nil {
			return err
		}
		tr.time("sumcheck.provezero16_jellyfish_w1_s", -1, op, func() { _, err = s.proveGate(jelly, 1) })
		if err != nil {
			return err
		}
		tr.time("sumcheck.round18_w1_s", -1, op, func() { sumcheck.RoundPolynomial(wrapped, 1) })
		tr.time("sumcheck.round18_wn_s", -1, op, func() { sumcheck.RoundPolynomial(wrapped, e.nproc) })

		copy(work, base)
		tab := mle.FromEvals(work)
		tr.time("mle.fold16_s", -1, op, func() { tab.FoldWorkers(&r, e.nproc) })
		tab = mle.FromEvals(base)
		tr.time("mle.evaluate16_s", -1, op, func() { tab.EvaluateWorkers(point, e.nproc) })
		tr.time("mle.eq16_s", -1, op, func() { mle.EqWorkers(point, e.nproc) })
		tr.time("ff.mul", -1, op, func() { ffSink = ffMulLoop(fpMulN, x, y) })
		return nil
	})
	if err != nil {
		return ops, 1, err
	}
	var muls uint64
	for _, g := range s.gates {
		name := "sumcheck.provezero16_" + g.key + "_s"
		m[name] = tr.med(name)
		muls += sumcheck.CountMuls(g.comp, e.lg)
	}
	for _, name := range []string{"sumcheck.provezero16_jellyfish_w1_s", "sumcheck.round18_w1_s", "sumcheck.round18_wn_s", "mle.fold16_s", "mle.evaluate16_s", "mle.eq16_s"} {
		m[name] = tr.med(name)
	}
	m["sumcheck.muls_per_sweep"] = float64(muls)
	m["sumcheck.ns_per_mul_jellyfish"] = tr.med("sumcheck.provezero16_jellyfish_s") * 1e9 / float64(sumcheck.CountMuls(jelly.comp, e.lg))
	m["ff.mul_ns"] = tr.med("ff.mul") * 1e9 / fpMulN
	return ops, 0, nil
}
