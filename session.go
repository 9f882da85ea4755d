package zkphire

import (
	"context"
	"fmt"
	"sync"

	"zkphire/internal/gates"
	"zkphire/internal/hyperplonk"
	"zkphire/internal/parallel"
)

// minLogGates is the smallest padded circuit size (2 rows) — the whole
// stack, product tree included, proves end to end at this size.
const minLogGates = 1

// maxLogGates caps explicit sizes at 2^30 rows (the hardware models' own
// software-proving ceiling; larger tables would not fit in memory anyway).
const maxLogGates = 30

// CompileOption customizes Compile.
type CompileOption func(*compileOptions)

type compileOptions struct {
	logGates    int
	logGatesSet bool
}

// WithLogGates pins the padded circuit size to 2^logGates rows instead of
// auto-sizing from the gate count. Compile fails if the circuit does not
// fit, or if logGates is out of range — the option pins, it never falls
// back.
func WithLogGates(logGates int) CompileOption {
	return func(o *compileOptions) { o.logGates, o.logGatesSet = logGates, true }
}

// CompiledCircuit is a padded, witness-checked circuit ready for
// preprocessing. Produce one with Compile; it is immutable afterwards and
// safe to share across provers.
type CompiledCircuit struct {
	circ *gates.Circuit
	kind Arithmetization
}

// Arithmetization reports the circuit's gate system.
func (cc *CompiledCircuit) Arithmetization() Arithmetization { return cc.kind }

// LogGates returns log2 of the padded row count.
func (cc *CompiledCircuit) LogGates() int { return cc.circ.NumVars }

// GateCount returns the real (unpadded) gate count.
func (cc *CompiledCircuit) GateCount() int { return cc.circ.GateCount }

// Compile pads the builder's circuit to a power-of-two row count, emits the
// selector/wire/permutation tables, and checks that the embedded witness
// satisfies every gate (failing fast, before any preprocessing cost). By
// default the row count is the smallest power of two that fits the emitted
// gates; use WithLogGates to pin it (e.g. to match a pre-sized SRS).
func Compile(b Builder, opts ...CompileOption) (*CompiledCircuit, error) {
	var o compileOptions
	for _, opt := range opts {
		opt(&o)
	}
	lg := o.logGates
	if !o.logGatesSet {
		lg = autoLogGates(b.GateCount())
	}
	if lg < minLogGates || lg > maxLogGates {
		return nil, fmt.Errorf("zkphire: logGates %d out of range [%d, %d]", lg, minLogGates, maxLogGates)
	}
	circ, err := b.compile(lg)
	if err != nil {
		return nil, err
	}
	if !circ.Satisfied() {
		return nil, fmt.Errorf("zkphire: witness does not satisfy the circuit")
	}
	return &CompiledCircuit{circ: circ, kind: b.Arithmetization()}, nil
}

// autoLogGates returns the smallest supported log2 capacity holding n gates.
func autoLogGates(n int) int {
	lg := minLogGates
	for (1 << uint(lg)) < n {
		lg++
	}
	return lg
}

// ProverOption customizes NewProver.
type ProverOption func(*Prover)

// WithWorkers sets the worker budget for each proof. One budget governs
// every parallel kernel in the prover — wire-commitment MSMs, MLE folds and
// Eq expansion, the SumCheck scan, permutation construction, batch
// evaluations, and PCS openings — via the shared internal/parallel engine.
//
// 0 (the default) means: the full machine (GOMAXPROCS) for single Prove
// calls, and an even share of the machine for each in-flight proof inside
// BatchProve (cores ÷ batch workers), so a batch saturates the machine
// without oversubscribing it. Set an explicit n to pin the budget for both.
func WithWorkers(n int) ProverOption {
	return func(p *Prover) { p.workers = n }
}

// WithMemoryBudget bounds the session's working set to roughly bytes of
// live prover data. It decides residency once, in NewProver: the SRS keeps
// its small commitment bases in RAM and moves the large ones to disk, and
// the session keeps no wiring-permutation tables — each proof rebuilds
// them from the circuit for the steps that read them. Prove then runs the
// same five steps as an in-core session, with every MSM against an
// offloaded basis streaming chunks through arena scratch.
//
// Proof bytes are identical to an in-core session's at every budget (the
// conformance suite in streaming_test.go checks this). The budget bounds
// zkphire's own live data, not the Go runtime's total footprint; pair it
// with GOMEMLIMIT (or debug.SetMemoryLimit) to make the process RSS follow.
// Below 16 MiB the SRS share is clamped up to Offload's 2 MiB floor to keep
// chunk geometry sane.
//
// The SRS offload is the only thing the option puts on disk, and it is
// sticky: the SRS keeps its disk backing (usable by any session, budgeted
// or not) until pcs.SRS.CloseBacking.
func WithMemoryBudget(bytes int64) ProverOption {
	return func(p *Prover) { p.memBudget = bytes }
}

// Prover is a reusable proving session: NewProver runs the circuit
// preprocessing (selector and wiring-permutation commitments) exactly once,
// and every subsequent Prove or BatchProve call amortizes it. A Prover is
// safe for concurrent use — all shared state is read-only after
// construction.
type Prover struct {
	srs       *SRS
	compiled  *CompiledCircuit
	vk        *hyperplonk.Index
	workers   int
	memBudget int64
}

// NewProver preprocesses the compiled circuit against the SRS and returns a
// session that can prove it any number of times. The WithWorkers budget (if
// set) also caps the preprocessing commitments.
//
// Preprocessing also warms the SRS's GLV φ-tables (the βx coordinates every
// endomorphism-accelerated MSM runs against) for its resident levels, so
// Prove and BatchProve never pay that build; provers sharing one SRS — and
// the serving layer's session cache — share the tables.
func NewProver(srs *SRS, compiled *CompiledCircuit, opts ...ProverOption) (*Prover, error) {
	if compiled == nil || compiled.circ == nil {
		return nil, fmt.Errorf("zkphire: nil compiled circuit")
	}
	p := &Prover{srs: srs, compiled: compiled}
	for _, opt := range opts {
		opt(p)
	}
	if p.memBudget > 0 {
		// An eighth of the budget funds the SRS: the levels that fit half
		// of it stay resident, and the chunk scratch of the big bases,
		// which re-stream from disk each commit, fits too. The rest is
		// headroom for the prover's own tables. Offload clamps tiny
		// budgets to its floor.
		if err := srs.Offload("", p.memBudget/8); err != nil {
			return nil, fmt.Errorf("zkphire: offload SRS: %w", err)
		}
	}
	idx, err := hyperplonk.PreprocessWorkers(srs, compiled.circ, p.workers)
	if err != nil {
		return nil, err
	}
	if p.memBudget > 0 {
		// σ is a pure function of the circuit's permutation, which the
		// compiled circuit keeps resident anyway: each proof rebuilds it
		// for the steps that read it instead of the session holding it.
		idx.SigmaTabs = nil
	}
	p.vk = idx
	return p, nil
}

// Close is a no-op: a session owns no files, budgeted or not — the SRS
// offload's belong to the SRS (pcs.SRS.CloseBacking). Proofs stay valid and
// the session can prove again after Close.
func (p *Prover) Close() error { return nil }

// VerifyingKey returns the preprocessed index proofs verify against.
func (p *Prover) VerifyingKey() *VerifyingKey { return p.vk }

// Workers returns the session's configured worker budget: 0 means "the
// full machine" (see WithWorkers). Serving layers read it to account a
// session's proofs against a global budget.
func (p *Prover) Workers() int { return p.workers }

// Compiled returns the compiled circuit this session proves.
func (p *Prover) Compiled() *CompiledCircuit { return p.compiled }

// ProveWorkers generates one proof under an explicit worker budget,
// overriding the session's WithWorkers setting for this call only. A
// dispatcher that divides a shared worker budget among concurrent proofs
// uses this to run each one at exactly its share.
func (p *Prover) ProveWorkers(ctx context.Context, workers int) (*Proof, error) {
	return p.prove(ctx, workers)
}

// Prove generates one proof. Cancelling ctx aborts it promptly — inside the
// MSM and SumCheck kernels, not only between protocol steps — and Prove
// then returns ctx.Err() unwrapped (see hyperplonk.Prove).
func (p *Prover) Prove(ctx context.Context) (*Proof, error) {
	return p.prove(ctx, p.workers)
}

// Verify checks a proof against this session's verifying key.
func (p *Prover) Verify(proof *Proof) error {
	return hyperplonk.Verify(p.srs, p.vk, proof)
}

func (p *Prover) prove(ctx context.Context, workers int) (*Proof, error) {
	return hyperplonk.Prove(ctx, p.srs, p.vk, p.compiled.circ, hyperplonk.Config{Workers: workers})
}

// BatchProve generates n proofs from the one-time preprocessing, proving up
// to `workers` proofs concurrently (0 = GOMAXPROCS). The first error — or a
// ctx cancellation — stops the batch. Unless WithWorkers pinned a budget,
// each in-flight proof receives an even share of the machine
// (GOMAXPROCS ÷ workers), so proof-level parallelism saturates the machine
// without oversubscribing it and the leftover cores of a small batch still
// speed up each proof.
func (p *Prover) BatchProve(ctx context.Context, n, workers int) ([]*Proof, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zkphire: batch size %d must be positive", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = min(parallel.Workers(workers), n)
	innerWorkers := p.workers
	if innerWorkers <= 0 {
		innerWorkers = parallel.Split(0, workers)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	proofs := make([]*Proof, n)
	var (
		errOnce  sync.Once
		firstErr error
	)
	parallel.Run(workers, n, func(i int) {
		if ctx.Err() != nil {
			return
		}
		proof, err := p.prove(ctx, innerWorkers)
		if err != nil {
			errOnce.Do(func() {
				firstErr = fmt.Errorf("zkphire: batch proof %d: %w", i, err)
				cancel()
			})
			return
		}
		proofs[i] = proof
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return proofs, nil
}
