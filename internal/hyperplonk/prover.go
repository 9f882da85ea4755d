package hyperplonk

import (
	"context"
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// Config controls the prover.
type Config struct {
	// Workers is the worker budget for the whole proof — wire commitments,
	// permutation construction, SumCheck scans, batch evaluations, and PCS
	// openings all share it. 0 = GOMAXPROCS.
	Workers int
	// Sequential selects nothing: there is one schedule. The field stays only
	// because the frozen bench/library.go sets it; the next benchmark PR
	// drops it.
	Sequential bool
}

// Prove generates a HyperPlonk proof that the circuit is satisfied by its
// embedded witness: the five protocol steps, in order, on one transcript.
// Cancelling ctx aborts the prover promptly — the MSM and SumCheck kernels
// poll it inside their hot loops and every step boundary checks it — and
// Prove then returns ctx.Err() itself, unwrapped; a nil ctx never cancels.
// Prove only reads srs, idx and c, so many proofs of the same index may run
// concurrently.
//
// Residency is decided before Prove runs. The SRS offload (pcs.Offload)
// is invisible to it; an index whose SigmaTabs is nil makes the three
// steps that read σ rebuild it from c.Perm (prover.sigmas) — the only
// place Prove looks at residency.
//
// Schedule invariance: worker counts and table residency never reach the
// transcript. Group addition is exact and associative and FromJacobian is
// canonical, so MSM segmentation cannot change a commitment; table
// evaluation and SumCheck arithmetic never depend on how many workers ran
// them or where an operand came from (resident, streamed or rebuilt).
func Prove(ctx context.Context, srs *pcs.SRS, idx *Index, c *gates.Circuit, cfg Config) (*Proof, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.NumVars != idx.NumVars {
		return nil, fmt.Errorf("hyperplonk: circuit/index size mismatch")
	}
	p := newProver(ctx, srs, idx, c, cfg.Workers)
	// A cancelled step reports ctx.Err() bare, not its own wrapping of it.
	fail := func(err error) (*Proof, error) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if err := p.commitWires(); err != nil {
		return fail(err)
	}
	rGate, err := p.gateZeroCheck()
	if err != nil {
		return fail(err)
	}
	arg, rPerm, err := p.permCheck()
	if err != nil {
		return fail(err)
	}
	// V is read through step 5; then it goes back to the arena.
	defer arg.Release()
	if err := p.batchEvals(arg.V, rPerm); err != nil {
		return fail(err)
	}
	if err := p.openings(arg.V, rGate, rPerm); err != nil {
		return fail(err)
	}
	return p.proof, nil
}

// prover is the state the five steps share: the inputs, the live transcript
// and the proof under construction. Each step method is one protocol step —
// the one place that step starts and ends.
type prover struct {
	ctx     context.Context
	srs     *pcs.SRS
	idx     *Index
	circ    *gates.Circuit
	workers int
	tr      *transcript.Transcript
	proof   *Proof
}

func newProver(ctx context.Context, srs *pcs.SRS, idx *Index, c *gates.Circuit, workers int) *prover {
	return &prover{
		ctx: ctx, srs: srs, idx: idx, circ: c,
		workers: parallel.Workers(workers),
		tr:      newTranscript(idx),
		proof:   &Proof{},
	}
}

func (p *prover) scCfg() sumcheck.Config { return sumcheck.Config{Workers: p.workers} }

// commitWires is Step 1: the witness commitments (Sparse MSMs in hardware).
// One MSM is live at a time at the full worker budget, so only one wire's
// Pippenger scratch (and, on an offloaded SRS, one stream of basis chunks)
// is resident. Commitments are absorbed in wire order.
func (p *prover) commitWires() error {
	comms := make([]pcs.Commitment, len(p.circ.Wires))
	for j, w := range p.circ.Wires {
		if err := p.ctx.Err(); err != nil {
			return err
		}
		comm, err := p.srs.CommitCtx(p.ctx, w, p.workers)
		if err != nil {
			return fmt.Errorf("hyperplonk: wire %d commit: %w", j, err)
		}
		comms[j] = comm
	}
	p.proof.WireComms = comms
	for _, comm := range comms {
		appendComm(p.tr, "wire", comm)
	}
	return nil
}

// gateZeroCheck is Step 2: the gate identity. Selectors and wires alias the
// compiled circuit, so nothing loads. It returns the ZeroCheck point.
func (p *prover) gateZeroCheck() ([]ff.Element, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	gate := p.idx.Gate
	gateTabs, err := p.circ.GateTables()
	if err != nil {
		return nil, err
	}
	assign, err := sumcheck.NewAssignment(gate, gateTabs)
	if err != nil {
		return nil, err
	}
	zc, rGate, err := sumcheck.ProveZeroCtx(p.ctx, p.tr, assign, p.scCfg())
	if err != nil {
		return nil, fmt.Errorf("hyperplonk: gate zerocheck: %w", err)
	}
	p.proof.GateZC = zc
	// Batch evaluation claims at the gate point: every gate constituent
	// except the trailing eq (which the verifier computes itself).
	p.proof.GateEvals = append([]ff.Element(nil), zc.Inner.FinalEvals[:gate.NumVars()]...)
	p.tr.AppendScalars("gate/evals", p.proof.GateEvals)
	return rGate, nil
}

// permCheck is Step 3: the wire identity — build the permutation argument,
// commit its product tree V, and run the PermCheck ZeroCheck. It returns
// the argument, holding only V (the one table steps 4–5 read) by then, and
// the ZeroCheck point; the caller releases the argument. A failed step
// leaves its tables to the collector.
func (p *prover) permCheck() (*perm.Argument, []ff.Element, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, nil, err
	}
	beta := p.tr.ChallengeScalar("perm/beta")
	gamma := p.tr.ChallengeScalar("perm/gamma")
	sigmas, doneSigmas := p.sigmas()
	arg := perm.BuildWorkers(p.circ.Wires, sigmas, beta, gamma, p.workers)
	doneSigmas()
	vComm, err := p.srs.CommitCtx(p.ctx, arg.V, p.workers)
	if err != nil {
		return nil, nil, fmt.Errorf("hyperplonk: product-tree commit: %w", err)
	}
	p.proof.VComm = vComm
	appendComm(p.tr, "perm/v", vComm)
	alpha := p.tr.ChallengeScalar("perm/alpha")

	permComp := poly.PermCheckCore(p.idx.Wires, alpha)
	permTabs, err := poly.Bind(permComp, poly.PermCheckVars(arg.Pi, arg.P1, arg.P2, arg.Phi, arg.DTabs, arg.NTabs))
	if err != nil {
		return nil, nil, err
	}
	assign, err := sumcheck.NewAssignment(permComp, permTabs)
	if err != nil {
		return nil, nil, err
	}
	// The 2(k+1)·N check tables beside V are the proof's peak residency.
	// Once the SumCheck's first fold materializes its half-size working
	// tables it never reads them again, so return them to the arena
	// mid-SumCheck rather than after: steps 4–5 evaluate and open only V,
	// which the drop preserves.
	cfg := p.scCfg()
	cfg.ReleaseSources = func() {
		arg.DropCheckTables()
		for i := range permTabs {
			permTabs[i] = nil
		}
	}
	zc, rPerm, err := sumcheck.ProveZeroCtx(p.ctx, p.tr, assign, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("hyperplonk: perm zerocheck: %w", err)
	}
	p.proof.PermZC = zc
	return arg, rPerm, nil
}

// batchEvals is Step 4: the batch evaluations (Multifunction Forest in
// hardware). All 4 + 2k evaluations are independent; they run concurrently
// with the budget divided among them and are absorbed in a fixed order.
func (p *prover) batchEvals(v *mle.Table, rPerm []ff.Element) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	sigmas, doneSigmas := p.sigmas()
	defer doneSigmas()
	proof, k := p.proof, p.idx.Wires
	proof.WirePermEvals = make([]ff.Element, k)
	proof.SigmaPermEvals = make([]ff.Element, k)
	type evalJob struct {
		dst *ff.Element
		tab *mle.Table
		pt  []ff.Element
	}
	var jobs []evalJob
	for i, pt := range vViewPoints(rPerm) {
		jobs = append(jobs, evalJob{&proof.VEvals[i], v, pt})
	}
	for j := 0; j < k; j++ {
		jobs = append(jobs,
			evalJob{&proof.WirePermEvals[j], p.circ.Wires[j], rPerm},
			evalJob{&proof.SigmaPermEvals[j], sigmas[j], rPerm})
	}
	perEval := parallel.Split(p.workers, len(jobs))
	parallel.Run(p.workers, len(jobs), func(i int) {
		*jobs[i].dst = jobs[i].tab.EvaluateWorkers(jobs[i].pt, perEval)
	})
	p.tr.AppendScalars("perm/vevals", proof.VEvals[:])
	p.tr.AppendScalars("perm/wevals", proof.WirePermEvals)
	p.tr.AppendScalars("perm/sevals", proof.SigmaPermEvals)
	return nil
}

// openings is Step 5: two OpenChecks, each followed by its batched PCS
// opening — the µ-variable selectors/wires/σ at the two ZeroCheck points,
// then the (µ+1)-variable V at its four view points.
func (p *prover) openings(v *mle.Table, rGate, rPerm []ff.Element) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	sigmas, doneSigmas := p.sigmas()
	var err error
	p.proof.OpenMain, err = p.openCheck("open/main", mainOrder(p.idx.SelectorTabs, p.circ.Wires, sigmas), mainOpenSet(p.idx, p.proof, rGate, rPerm))
	doneSigmas() // a rebuilt σ copy goes back here, before V's opening chain
	if err != nil {
		return err
	}
	p.proof.OpenV, err = p.openCheck("open/v", []*mle.Table{v}, vOpenSet(p.proof, rPerm))
	return err
}

// sigmas returns the σ tables for one protocol step and the call that ends
// their use: the index's resident ones, or, when the index holds none (a
// memory-budgeted session), a copy rebuilt from the circuit's permutation
// in arena tables, which done returns. The values are identical either
// way, so the choice cannot affect proof bytes.
func (p *prover) sigmas() (tabs []*mle.Table, done func()) {
	if p.idx.SigmaTabs != nil {
		return p.idx.SigmaTabs, func() {}
	}
	tabs = perm.SigmaTables(p.circ.Perm, p.circ.NumVars)
	return tabs, func() {
		for _, t := range tabs {
			t.Release()
		}
	}
}

// --- shared helpers (used by both prover and verifier) ---

func newTranscript(idx *Index) *transcript.Transcript {
	tr := transcript.New("hyperplonk")
	tr.AppendUint64("numvars", uint64(idx.NumVars))
	tr.AppendUint64("wires", uint64(idx.Wires))
	for i, cm := range idx.SelectorComms {
		tr.AppendBytes("selector/"+idx.SelectorNames[i], commBytes(cm))
	}
	for _, cm := range idx.SigmaComms {
		tr.AppendBytes("sigma", commBytes(cm))
	}
	return tr
}

func commBytes(c pcs.Commitment) []byte {
	if c.Point.Infinity {
		return []byte{0}
	}
	xb := c.Point.X.Bytes()
	yb := c.Point.Y.Bytes()
	return append(xb[:], yb[:]...)
}

func appendComm(tr *transcript.Transcript, label string, c pcs.Commitment) {
	tr.AppendBytes(label, commBytes(c))
}
