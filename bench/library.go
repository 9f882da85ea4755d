package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"zkphire"
	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/gates"
	"zkphire/internal/hyperplonk"
	"zkphire/internal/membench"
	"zkphire/internal/mle"
	"zkphire/internal/perm"
	"zkphire/internal/spill"
)

// streamBudget is jellyfish16_stream's memory budget.
const streamBudget = 64 << 20

// libInstance is a proving session of the public API.
type libInstance struct {
	srs      *zkphire.SRS
	compiled *zkphire.CompiledCircuit
	prover   *zkphire.Prover
	// parts are the set-up's own timings, for the traced run.
	setupSRS, setupCompile, setupProver float64
}

func (l *libInstance) op(ctx context.Context, _, _ int) ([]byte, error) {
	proof, err := l.prover.Prove(ctx)
	if err != nil {
		return nil, err
	}
	return proof.MarshalBinary()
}

// check verifies the way a remote verifier would: from the bytes.
func (l *libInstance) check(out []byte) error {
	var proof zkphire.Proof
	if err := proof.UnmarshalBinary(out); err != nil {
		return err
	}
	return zkphire.Verify(l.srs, l.prover.VerifyingKey(), &proof)
}

func (l *libInstance) close() {
	l.prover.Close()
	l.srs.CloseBacking()
}

// setupLibrary is everything before the first proof can be requested: SRS,
// circuit construction and Compile, NewProver (preprocessing).
func setupLibrary(e *env, build func() zkphire.Builder, opts ...zkphire.ProverOption) (instance, error) {
	l := &libInstance{}
	t0 := time.Now()
	l.srs = zkphire.SetupDeterministic(e.lg+1, subSeed(e.seed, streamSRS))
	l.setupSRS = time.Since(t0).Seconds()

	t0 = time.Now()
	var err error
	if l.compiled, err = zkphire.Compile(build(), zkphire.WithLogGates(e.lg)); err != nil {
		return nil, err
	}
	l.setupCompile = time.Since(t0).Seconds()

	t0 = time.Now()
	if l.prover, err = zkphire.NewProver(l.srs, l.compiled, opts...); err != nil {
		return nil, err
	}
	l.setupProver = time.Since(t0).Seconds()
	return l, nil
}

func vanillaBuilder(e *env) zkphire.Builder {
	b := zkphire.NewCircuitBuilder()
	buildVanillaChain(b, b.Secret(secretValue(e.seed)), e.lg, e.seed)
	return b
}

func jellyfishBuilder(e *env) zkphire.Builder {
	b := zkphire.NewJellyfishBuilder()
	buildJellyfishMix(b, b.Secret(secretValue(e.seed)), e.lg, e.seed)
	return b
}

var vanilla16 = &workload{
	name:    "vanilla16",
	clients: func(*env) int { return 1 },
	setup: func(e *env) (instance, error) {
		return setupLibrary(e, func() zkphire.Builder { return vanillaBuilder(e) }, zkphire.WithWorkers(e.nproc))
	},
	trace: traceVanilla,
}

var jellyfish16Stream = &workload{
	name:    "jellyfish16_stream",
	clients: func(*env) int { return 1 },
	setup: func(e *env) (instance, error) {
		return setupLibrary(e, func() zkphire.Builder { return jellyfishBuilder(e) }, zkphire.WithWorkers(e.nproc), zkphire.WithMemoryBudget(streamBudget))
	},
	trace: traceJellyfish,
}

// proveBytes proves once under a span and returns the serialized proof.
func proveBytes(tr *tracer, name string, op int, p *zkphire.Prover) ([]byte, error) {
	var out []byte
	var err error
	tr.time(name, -1, op, func() {
		var proof *zkphire.Proof
		if proof, err = p.Prove(context.Background()); err == nil {
			out, err = proof.MarshalBinary()
		}
	})
	return out, err
}

// rounds calls f with op = 0, 1, … until seconds have passed since start and
// f has run at least min times.
func rounds(start time.Time, seconds float64, min int, f func(op int) error) (int, error) {
	for op := 0; ; op++ {
		if op >= min && time.Since(start).Seconds() >= seconds {
			return op, nil
		}
		if err := f(op); err != nil {
			return op + 1, err
		}
	}
}

// traceVanilla is vanilla16's traced run. Each round proves under the
// sequential schedule and at one worker, replays the five steps from
// outside, and probes the kernels under them; the replayed proof must equal
// the prover's own bytes.
func traceVanilla(e *env, inst instance, tr *tracer, m values) (int, int, error) {
	l := inst.(*libInstance)
	start := time.Now()
	m["zkphire.setup17_s"] = l.setupSRS
	m["zkphire.compile16_s"] = l.setupCompile
	m["zkphire.newprover16_s"] = l.setupProver

	// The same circuit through the internal builder, whose tables the
	// replay needs; Preprocess is the hyperplonk layer's share of NewProver.
	gb := gates.NewVanillaBuilder()
	buildVanillaChain(gb, gb.NewVariable(ff.NewElement(secretValue(e.seed))), e.lg, e.seed)
	circ, err := gb.Build(e.lg)
	if err != nil {
		return 0, 0, err
	}
	var idx *hyperplonk.Index
	tr.time("hyperplonk.preprocess16_s", -1, -1, func() {
		idx, err = hyperplonk.PreprocessWorkers(l.srs, circ, e.nproc)
	})
	if err != nil {
		return 0, 0, err
	}
	n := 1 << uint(e.lg)
	rng := ff.NewRand(subSeed(e.seed, streamTables))
	scalars := rng.Elements(n)
	dense := mle.FromEvals(scalars)
	points := l.srs.Levels[e.lg]

	var want []byte
	var verifyMS, allocs, allocMiB []float64
	ops, err := rounds(start, e.seconds, e.traceRounds, func(op int) error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		got, err := proveBytes(tr, "hyperplonk.prove16_default", op, l.prover)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		allocMiB = append(allocMiB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		if want == nil {
			want = got
		}
		t0 := time.Now()
		if err := l.check(got); err != nil {
			return err
		}
		verifyMS = append(verifyMS, time.Since(t0).Seconds()*1e3)

		for _, v := range []struct {
			name    string
			workers int
		}{{"hyperplonk.prove16_sequential_s", e.nproc}, {"hyperplonk.prove16_w1_s", 1}} {
			var proof *hyperplonk.Proof
			tr.time(v.name, -1, op, func() {
				proof, err = hyperplonk.Prove(context.Background(), l.srs, idx, circ, hyperplonk.Config{Workers: v.workers, Sequential: true})
			})
			if err != nil {
				return err
			}
			if got, err = proof.MarshalBinary(); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s: proof bytes differ from the public API's", v.name)
			}
		}
		rp, err := replay(tr, op, l.srs, idx, circ, e.nproc)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if got, err = rp.MarshalBinary(); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replayed proof bytes differ from the prover's")
		}

		tr.time("curve.msm16_wn_s", -1, op, func() { curve.MSMWorkers(points, scalars, e.nproc) })
		tr.time("curve.msm16_w1_s", -1, op, func() { curve.MSMWorkers(points, scalars, 1) })
		tr.time("pcs.commit16_dense_s", -1, op, func() { _, err = l.srs.CommitWorkers(dense, e.nproc) })
		if err != nil {
			return err
		}
		tr.time("fp.mul", -1, op, func() { fpMulLoop(fpMulN) })
		return nil
	})
	if err != nil {
		return ops, 1, err
	}

	for _, name := range []string{
		"hyperplonk.preprocess16_s", "hyperplonk.prove16_sequential_s", "hyperplonk.prove16_w1_s",
		"hyperplonk.step1_commit_s", "hyperplonk.step2_gate_zerocheck_s", "hyperplonk.step3_perm_s",
		"hyperplonk.step4_evals_s", "hyperplonk.step5_open_s",
		"perm.build16_k3_s", "pcs.commit16_wire_s", "pcs.commit17_v_s", "pcs.open16_s", "pcs.combine16_s",
		"pcs.commit16_dense_s", "curve.msm16_wn_s", "curve.msm16_w1_s",
	} {
		m[name] = tr.med(name)
	}
	seqS, w1S := m["hyperplonk.prove16_sequential_s"], m["hyperplonk.prove16_w1_s"]
	m["hyperplonk.scaling_eff"] = w1S / (float64(e.nproc) * seqS)
	m["curve.msm16_scaling"] = m["curve.msm16_w1_s"] / (float64(e.nproc) * m["curve.msm16_wn_s"])
	var sum float64
	for _, s := range []string{"step1_commit_s", "step2_gate_zerocheck_s", "step3_perm_s", "step4_evals_s", "step5_open_s"} {
		sum += m["hyperplonk."+s]
	}
	m["hyperplonk.replay_sum_s"] = sum
	m["hyperplonk.replay_coverage"] = sum / seqS
	m["fp.mul_ns"] = tr.med("fp.mul") * 1e9 / fpMulN
	m["zkphire.verify_ms"] = median(verifyMS)
	m["zkphire.allocs_per_proof"] = median(allocs)
	m["zkphire.alloc_mib_per_proof"] = median(allocMiB)
	if cpu, ok := hwMetrics()["hw.cpumodel_vanilla16_s"]; ok {
		m["hw.measured_over_cpumodel_vanilla16"] = tr.med("hyperplonk.prove16_default") / cpu
	}
	return ops, 0, nil
}

// fpMulN is the length of the dependent multiplication chains behind
// fp.mul_ns and ff.mul_ns.
const fpMulN = 1 << 20

var fpSink fp.Element

// fpMulLoop runs n dependent base-field multiplications.
func fpMulLoop(n int) {
	x := curve.Generator().X
	y := curve.Generator().Y
	for i := 0; i < n; i++ {
		x.Mul(&x, &y)
	}
	fpSink = x
}

// traceJellyfish is jellyfish16_stream's traced run: the same circuit
// in-core and streamed, each under the RSS sampler, their bytes compared,
// and the kernels only the streamed schedule uses.
func traceJellyfish(e *env, inst instance, tr *tracer, m values) (int, int, error) {
	streamed := inst.(*libInstance)
	start := time.Now()

	store, err := spill.NewStore("")
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	var inRSS, stRSS []float64
	ops, err := rounds(start, e.seconds, e.traceRounds, func(op int) error {
		// The in-core reference gets an SRS of its own (the streamed
		// session's is offloaded, and offloading is sticky) and is dropped
		// before the streamed proof, so that each resident set is measured
		// with only its own session live.
		incore, err := zkphire.NewProver(zkphire.SetupDeterministic(e.lg+1, subSeed(e.seed, streamSRS)), streamed.compiled, zkphire.WithWorkers(e.nproc))
		if err != nil {
			return err
		}
		var want, got []byte
		r := membench.Sample(func() { want, err = proveBytes(tr, "hyperplonk.jellyfish16_incore_s", op, incore) })
		incore = nil
		if err != nil {
			return err
		}
		inRSS = append(inRSS, float64(r.PeakBytes)/(1<<20))
		r = membench.Sample(func() { got, err = proveBytes(tr, "hyperplonk.jellyfish16_streamed", op, streamed.prover) })
		if err != nil {
			return err
		}
		stRSS = append(stRSS, float64(r.PeakBytes)/(1<<20))
		if !bytes.Equal(got, want) {
			return fmt.Errorf("streamed proof bytes differ from the in-core proof's")
		}
		if err := streamed.check(got); err != nil {
			return err
		}

		// The probes' inputs are built only now, so that they were not
		// resident during the two measurements above.
		gb := gates.NewJellyfishBuilder()
		buildJellyfishMix(gb, gb.NewVariable(ff.NewElement(secretValue(e.seed))), e.lg, e.seed)
		circ, err := gb.Build(e.lg)
		if err != nil {
			return err
		}
		sigma := perm.SigmaTables(circ.Perm, e.lg)
		rng := ff.NewRand(subSeed(e.seed, streamTables))
		beta, gamma := rng.Element(), rng.Element()
		dense := mle.FromEvals(rng.Elements(1 << uint(e.lg)))
		tr.time("perm.build16_k5_s", -1, op, func() { perm.BuildWorkers(circ.Wires, sigma, beta, gamma, e.nproc) })
		tr.time("pcs.offload_commit16_s", -1, op, func() {
			_, err = streamed.srs.CommitCtx(context.Background(), dense, e.nproc)
		})
		if err != nil {
			return err
		}
		tr.time("pcs.stream_commit16_s", -1, op, func() { err = streamCommit(streamed.srs, dense, e.nproc) })
		if err != nil {
			return err
		}
		tr.time("spill.roundtrip16_s", -1, op, func() {
			var h *spill.Table
			if h, err = spill.PutTable(context.Background(), store, fmt.Sprintf("probe%d", op), dense); err == nil {
				if _, err = h.Load(context.Background()); err == nil {
					err = h.Release()
				}
			}
		})
		return err
	})
	if err != nil {
		return ops, 1, err
	}
	for _, name := range []string{"hyperplonk.jellyfish16_incore_s", "perm.build16_k5_s", "pcs.offload_commit16_s", "pcs.stream_commit16_s", "spill.roundtrip16_s"} {
		m[name] = tr.med(name)
	}
	m["hyperplonk.jellyfish16_incore_rss_mib"] = median(inRSS)
	m["hyperplonk.stream_slowdown"] = tr.med("hyperplonk.jellyfish16_streamed") / tr.med("hyperplonk.jellyfish16_incore_s")
	m["hyperplonk.stream_rss_ratio"] = median(stRSS) / median(inRSS)
	return ops, 0, nil
}

// streamCommit commits t through a StreamCommitter in 16 segments, the way
// the pipelined prover commits the product tree while it is being built.
func streamCommit(srs *zkphire.SRS, t *mle.Table, workers int) error {
	sc, err := srs.CommitStream(t.NumVars)
	if err != nil {
		return err
	}
	seg := max(1, t.Size()/16)
	for off := 0; off < t.Size(); off += seg {
		if err := sc.Feed(context.Background(), off, t.Evals[off:off+seg], workers); err != nil {
			return err
		}
	}
	_, err = sc.Finish(context.Background(), workers)
	return err
}
