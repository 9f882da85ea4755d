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
// Residency is decided before Prove runs — the SRS offload (pcs.Offload)
// and the σ spill (PreprocessSpilled) — and Prove has no branch on it.
// Schedule invariance: worker counts and table residency never reach the
// transcript. Group addition is exact and associative and FromJacobian is
// canonical, so MSM segmentation cannot change a commitment; table
// evaluation and SumCheck arithmetic never depend on how many workers ran
// them or where the operands were loaded from.
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
	v, rPerm, err := p.permCheck()
	if err != nil {
		return fail(err)
	}
	if err := p.batchEvals(v, rPerm); err != nil {
		return fail(err)
	}
	if err := p.openings(v, rGate, rPerm); err != nil {
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
	wires   []*mle.Table
	workers int
	tr      *transcript.Transcript
	proof   *Proof
}

func newProver(ctx context.Context, srs *pcs.SRS, idx *Index, c *gates.Circuit, workers int) *prover {
	return &prover{
		ctx: ctx, srs: srs, idx: idx, wires: c.Wires,
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
	comms := make([]pcs.Commitment, len(p.wires))
	for j, w := range p.wires {
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
	gateTabs, err := bindGateTables(gate, p.idx, p.wires)
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
// commit its product tree V, and run the PermCheck ZeroCheck. It returns V
// (the only argument table steps 4–5 read) and the ZeroCheck point.
func (p *prover) permCheck() (*mle.Table, []ff.Element, error) {
	if err := p.ctx.Err(); err != nil {
		return nil, nil, err
	}
	beta := p.tr.ChallengeScalar("perm/beta")
	gamma := p.tr.ChallengeScalar("perm/gamma")
	sigmas, err := loadSigmas(p.ctx, p.idx)
	if err != nil {
		return nil, nil, err
	}
	arg := perm.BuildWorkers(p.wires, sigmas, beta, gamma, p.workers)
	sigmas = nil // the argument owns its buffers; drop a loaded σ copy
	vComm, err := p.srs.CommitCtx(p.ctx, arg.V, p.workers)
	if err != nil {
		return nil, nil, fmt.Errorf("hyperplonk: product-tree commit: %w", err)
	}
	p.proof.VComm = vComm
	appendComm(p.tr, "perm/v", vComm)
	alpha := p.tr.ChallengeScalar("perm/alpha")

	permComp, permTabs := buildPermCheck(p.idx.Wires, alpha, arg)
	assign, err := sumcheck.NewAssignment(permComp, permTabs)
	if err != nil {
		return nil, nil, err
	}
	// The (2k+4)·N check tables are the proof's peak residency. Once the
	// SumCheck's first fold materializes its half-size working tables it
	// never reads them again, so free them mid-SumCheck rather than after:
	// steps 4–5 evaluate and open only V, which the drop preserves.
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
	return arg.V, rPerm, nil
}

// batchEvals is Step 4: the batch evaluations (Multifunction Forest in
// hardware). All 4 + 2k evaluations are independent; they run concurrently
// with the budget divided among them and are absorbed in a fixed order.
func (p *prover) batchEvals(v *mle.Table, rPerm []ff.Element) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	sigmas, err := loadSigmas(p.ctx, p.idx)
	if err != nil {
		return err
	}
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
		jobs = append(jobs, evalJob{&proof.VEvals[i], v, pt.coords})
	}
	for j := 0; j < k; j++ {
		jobs = append(jobs,
			evalJob{&proof.WirePermEvals[j], p.wires[j], rPerm},
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
	sigmas, err := loadSigmas(p.ctx, p.idx)
	if err != nil {
		return err
	}
	// Distinct-polynomial order (openingComms mirrors it): selectors, wires, σ.
	mainPolys := make([]*mle.Table, 0, len(p.idx.SelectorTabs)+len(p.wires)+len(sigmas))
	mainPolys = append(mainPolys, p.idx.SelectorTabs...)
	mainPolys = append(mainPolys, p.wires...)
	mainPolys = append(mainPolys, sigmas...)
	sigmas = nil
	mainClaims := mainClaimList(p.idx, p.proof, rGate, rPerm)
	mainPoints := []openPoint{{name: "gate", coords: rGate}, {name: "perm", coords: rPerm}}
	p.proof.OpenMain, err = p.openCheck("open/main", mainPolys, mainClaims, mainPoints)
	if err != nil {
		return err
	}
	mainPolys = nil // a loaded σ copy dies here, before V's opening chain

	vClaims := make([]evalClaim, len(p.proof.VEvals))
	for i := range vClaims {
		vClaims[i] = evalClaim{Poly: 0, Point: i, Value: p.proof.VEvals[i]}
	}
	p.proof.OpenV, err = p.openCheck("open/v", []*mle.Table{v}, vClaims, vViewPoints(rPerm))
	return err
}

// openCheck runs one OpenCheck instance end to end: the transcript-
// interactive SumCheck, then the witness MSMs of the batched opening.
func (p *prover) openCheck(label string, polys []*mle.Table, claims []evalClaim, points []openPoint) (*OpenProof, error) {
	d, err := proveOpenCheckStream(p.ctx, p.tr, label, polys, claims, points, p.scCfg())
	if err != nil {
		return nil, err
	}
	if err := d.computeWitness(p.ctx, p.srs, p.workers); err != nil {
		return nil, err
	}
	return d.op, nil
}

// vViewPoints names the four points of V whose evaluations reconstruct
// π, p₁, p₂, ϕ at r, in the order of Proof.VEvals.
func vViewPoints(r []ff.Element) []openPoint {
	piPt, p1Pt, p2Pt, phiPt := perm.ViewPoints(r)
	return []openPoint{
		{name: "pi", coords: piPt},
		{name: "p1", coords: p1Pt},
		{name: "p2", coords: p2Pt},
		{name: "phi", coords: phiPt},
	}
}

// loadSigmas returns the σ tables for one protocol step: the resident ones
// when the index is in core, a freshly loaded copy from the spill store when
// it is spilled. Callers drop the returned slice when the step ends; the
// table values are identical either way (the spill codec round-trips raw
// Montgomery limbs), so the choice cannot affect proof bytes.
func loadSigmas(ctx context.Context, idx *Index) ([]*mle.Table, error) {
	if idx.SigmaTabs != nil {
		return idx.SigmaTabs, nil
	}
	if idx.SigmaSpill == nil {
		return nil, fmt.Errorf("hyperplonk: index has neither resident nor spilled σ tables")
	}
	tabs := make([]*mle.Table, len(idx.SigmaSpill))
	for i, h := range idx.SigmaSpill {
		t, err := h.Load(ctx)
		if err != nil {
			return nil, fmt.Errorf("hyperplonk: reload σ_%d: %w", i+1, err)
		}
		tabs[i] = t
	}
	return tabs, nil
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

// bindGateTables maps the gate composite's variable names to circuit tables.
func bindGateTables(gate *poly.Composite, idx *Index, wires []*mle.Table) ([]*mle.Table, error) {
	tabs := make([]*mle.Table, gate.NumVars())
	for i, name := range gate.VarNames {
		if si := indexOf(idx.SelectorNames, name); si >= 0 {
			tabs[i] = idx.SelectorTabs[si]
			continue
		}
		var w int
		if _, err := fmt.Sscanf(name, "w%d", &w); err == nil && w >= 1 && w <= len(wires) {
			tabs[i] = wires[w-1]
			continue
		}
		return nil, fmt.Errorf("hyperplonk: gate variable %q has no bound table", name)
	}
	return tabs, nil
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// buildPermCheck returns the PermCheck composite (without eq wrapping; the
// ZeroCheck adds it) and its bound tables, in the composite's variable order.
func buildPermCheck(k int, alpha ff.Element, arg *perm.Argument) (*poly.Composite, []*mle.Table) {
	comp := permCheckCore(k, alpha)
	tabs := make([]*mle.Table, comp.NumVars())
	for i, name := range comp.VarNames {
		switch name {
		case "pi":
			tabs[i] = arg.Pi
		case "p1":
			tabs[i] = arg.P1
		case "p2":
			tabs[i] = arg.P2
		case "phi":
			tabs[i] = arg.Phi
		default:
			var j int
			if _, err := fmt.Sscanf(name, "D%d", &j); err == nil {
				tabs[i] = arg.DTabs[j-1]
				continue
			}
			if _, err := fmt.Sscanf(name, "N%d", &j); err == nil {
				tabs[i] = arg.NTabs[j-1]
				continue
			}
			panic("hyperplonk: unexpected permcheck variable " + name)
		}
	}
	return comp, tabs
}

// permCheckCore is Table I poly 21/23 WITHOUT the trailing eq factor
// (ProveZero wraps it).
func permCheckCore(k int, alpha ff.Element) *poly.Composite {
	full := poly.VanillaPermCheck(alpha)
	if k == 5 {
		full = poly.JellyfishPermCheck(alpha)
	} else if k != 3 {
		full = poly.PermCheckK(k, alpha)
	}
	return stripEq(full)
}

// stripEq removes the trailing fr factor from a registry PermCheck
// composite, returning the bare constraint.
func stripEq(c *poly.Composite) *poly.Composite {
	eqIdx := c.VarIndex("fr")
	if eqIdx < 0 {
		return c
	}
	out := &poly.Composite{Name: c.Name + "/core", ID: -1}
	// Keep all variables except fr; remap indices.
	remap := make([]int, len(c.VarNames))
	for i, n := range c.VarNames {
		if i == eqIdx {
			remap[i] = -1
			continue
		}
		remap[i] = len(out.VarNames)
		out.VarNames = append(out.VarNames, n)
		out.Roles = append(out.Roles, c.Roles[i])
	}
	for _, t := range c.Terms {
		nt := poly.Term{Coeff: t.Coeff}
		for _, f := range t.Factors {
			if f.Var == eqIdx {
				continue
			}
			nt.Factors = append(nt.Factors, poly.Factor{Var: remap[f.Var], Power: f.Power})
		}
		out.Terms = append(out.Terms, nt)
	}
	return out
}

// openingComms lists the commitments of the distinct µ-variable polynomials
// the main OpenCheck opens, in its fixed order: selectors, wires, sigmas.
func openingComms(idx *Index, proof *Proof) []pcs.Commitment {
	var comms []pcs.Commitment
	comms = append(comms, idx.SelectorComms...)
	comms = append(comms, proof.WireComms...)
	comms = append(comms, idx.SigmaComms...)
	return comms
}

// evalClaim says: distinct polynomial Poly evaluates to Value at point
// index Point.
type evalClaim struct {
	Poly  int
	Point int
	Value ff.Element
}

type openPoint struct {
	name   string
	coords []ff.Element
}

// mainClaimList orders the OpenCheck claims deterministically: selectors at
// the gate point, wires at both points, sigmas at the perm point.
func mainClaimList(idx *Index, proof *Proof, rGate, rPerm []ff.Element) []evalClaim {
	gate := idx.Gate
	numSel := len(idx.SelectorNames)
	var claims []evalClaim
	// Gate-point claims come from GateEvals, which follow the gate
	// composite's variable order; map them onto the opening set order.
	for gi, name := range gate.VarNames {
		if si := indexOf(idx.SelectorNames, name); si >= 0 {
			claims = append(claims, evalClaim{Poly: si, Point: 0, Value: proof.GateEvals[gi]})
			continue
		}
		var w int
		if _, err := fmt.Sscanf(name, "w%d", &w); err == nil && w >= 1 && w <= idx.Wires {
			claims = append(claims, evalClaim{Poly: numSel + w - 1, Point: 0, Value: proof.GateEvals[gi]})
		}
	}
	// Perm-point claims.
	for j := 0; j < idx.Wires; j++ {
		claims = append(claims, evalClaim{Poly: numSel + j, Point: 1, Value: proof.WirePermEvals[j]})
		claims = append(claims, evalClaim{Poly: numSel + idx.Wires + j, Point: 1, Value: proof.SigmaPermEvals[j]})
	}
	return claims
}
