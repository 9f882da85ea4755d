package main

import (
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/hyperplonk"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// replay is the HyperPlonk prover's five steps written out from outside as
// calls into the public kernels of pcs, sumcheck, perm and mle, with a span
// around each step and each kernel. It follows the sequential schedule's
// transcript label for label, so the proof it assembles must be
// byte-identical to hyperplonk.Prove's — the caller checks that, and that
// check is what makes the step spans an attribution of the real prover
// rather than of a look-alike.
func replay(tr *tracer, op int, srs *pcs.SRS, idx *hyperplonk.Index, c *gates.Circuit, workers int) (*hyperplonk.Proof, error) {
	root, endRoot := tr.begin("hyperplonk.replay", -1, op)
	defer endRoot()
	ts := replayTranscript(idx)
	proof := &hyperplonk.Proof{}
	cfg := sumcheck.Config{Workers: workers}
	k := len(c.Wires)

	// Step 1: wire commitments.
	s1, end := tr.begin("hyperplonk.step1_commit_s", root, op)
	proof.WireComms = make([]pcs.Commitment, k)
	errs := make([]error, k)
	per := parallel.Split(workers, k)
	parallel.Run(workers, k, func(j int) {
		_, endWire := tr.begin("pcs.commit16_wire_s", s1, op)
		proof.WireComms[j], errs[j] = srs.CommitWorkers(c.Wires[j], per)
		endWire()
	})
	end()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, cm := range proof.WireComms {
		ts.AppendBytes("wire", commBytes(cm))
	}

	// Step 2: gate identity ZeroCheck.
	_, end = tr.begin("hyperplonk.step2_gate_zerocheck_s", root, op)
	gateTabs, err := bindGate(idx, c.Wires)
	if err != nil {
		return nil, err
	}
	gateAssign, err := sumcheck.NewAssignment(idx.Gate, gateTabs)
	if err != nil {
		return nil, err
	}
	gateZC, rGate, err := sumcheck.ProveZero(ts, gateAssign, cfg)
	end()
	if err != nil {
		return nil, err
	}
	proof.GateZC = gateZC
	proof.GateEvals = append([]ff.Element(nil), gateZC.Inner.FinalEvals[:idx.Gate.NumVars()]...)
	ts.AppendScalars("gate/evals", proof.GateEvals)

	// Step 3: permutation argument build, product-tree commit, PermCheck.
	s3, end := tr.begin("hyperplonk.step3_perm_s", root, op)
	beta := ts.ChallengeScalar("perm/beta")
	gamma := ts.ChallengeScalar("perm/gamma")
	var arg *perm.Argument
	tr.time(fmt.Sprintf("perm.build16_k%d_s", k), s3, op, func() {
		arg = perm.BuildWorkers(c.Wires, idx.SigmaTabs, beta, gamma, workers)
	})
	tr.time("pcs.commit17_v_s", s3, op, func() {
		proof.VComm, err = srs.CommitWorkers(arg.V, workers)
	})
	if err != nil {
		return nil, err
	}
	ts.AppendBytes("perm/v", commBytes(proof.VComm))
	alpha := ts.ChallengeScalar("perm/alpha")
	permComp, permTabs, err := bindPermCheck(k, alpha, arg)
	if err != nil {
		return nil, err
	}
	permAssign, err := sumcheck.NewAssignment(permComp, permTabs)
	if err != nil {
		return nil, err
	}
	var rPerm []ff.Element
	tr.time("sumcheck.permcheck_zerocheck", s3, op, func() {
		proof.PermZC, rPerm, err = sumcheck.ProveZero(ts, permAssign, cfg)
	})
	end()
	if err != nil {
		return nil, err
	}

	// Step 4: batch evaluations.
	_, end = tr.begin("hyperplonk.step4_evals_s", root, op)
	piPt, p1Pt, p2Pt, phiPt := perm.ViewPoints(rPerm)
	vPts := [][]ff.Element{piPt, p1Pt, p2Pt, phiPt}
	proof.WirePermEvals = make([]ff.Element, k)
	proof.SigmaPermEvals = make([]ff.Element, k)
	type evalJob struct {
		dst *ff.Element
		tab *mle.Table
		pt  []ff.Element
	}
	var jobs []evalJob
	for i, pt := range vPts {
		jobs = append(jobs, evalJob{&proof.VEvals[i], arg.V, pt})
	}
	for j := 0; j < k; j++ {
		jobs = append(jobs,
			evalJob{&proof.WirePermEvals[j], c.Wires[j], rPerm},
			evalJob{&proof.SigmaPermEvals[j], idx.SigmaTabs[j], rPerm})
	}
	perEval := parallel.Split(workers, len(jobs))
	parallel.Run(workers, len(jobs), func(i int) {
		*jobs[i].dst = jobs[i].tab.EvaluateWorkers(jobs[i].pt, perEval)
	})
	end()
	ts.AppendScalars("perm/vevals", proof.VEvals[:])
	ts.AppendScalars("perm/wevals", proof.WirePermEvals)
	ts.AppendScalars("perm/sevals", proof.SigmaPermEvals)

	// Step 5: the two OpenChecks and their batched PCS openings.
	s5, end := tr.begin("hyperplonk.step5_open_s", root, op)
	defer end()
	mainPolys := append(append(append([]*mle.Table(nil), idx.SelectorTabs...), c.Wires...), idx.SigmaTabs...)
	proof.OpenMain, err = openCheck(tr, s5, op, ts, srs, "open/main", mainPolys, mainClaims(idx, proof), [][]ff.Element{rGate, rPerm}, true, cfg)
	if err != nil {
		return nil, err
	}
	var vClaims []claim
	for i := range vPts {
		vClaims = append(vClaims, claim{poly: 0, point: i, value: proof.VEvals[i]})
	}
	proof.OpenV, err = openCheck(tr, s5, op, ts, srs, "open/v", []*mle.Table{arg.V}, vClaims, vPts, false, cfg)
	return proof, err
}

// replayTranscript seeds the Fiat–Shamir transcript the way the prover and
// verifier do: sizes, then every preprocessed commitment.
func replayTranscript(idx *hyperplonk.Index) *transcript.Transcript {
	ts := transcript.New("hyperplonk")
	ts.AppendUint64("numvars", uint64(idx.NumVars))
	ts.AppendUint64("wires", uint64(idx.Wires))
	for i, cm := range idx.SelectorComms {
		ts.AppendBytes("selector/"+idx.SelectorNames[i], commBytes(cm))
	}
	for _, cm := range idx.SigmaComms {
		ts.AppendBytes("sigma", commBytes(cm))
	}
	return ts
}

func commBytes(c pcs.Commitment) []byte {
	if c.Point.Infinity {
		return []byte{0}
	}
	xb := c.Point.X.Bytes()
	yb := c.Point.Y.Bytes()
	return append(xb[:], yb[:]...)
}

// selectorIndex returns name's position among the index's selectors, or -1.
func selectorIndex(idx *hyperplonk.Index, name string) int {
	for i, n := range idx.SelectorNames {
		if n == name {
			return i
		}
	}
	return -1
}

// wireIndex parses "w3" into 2, or -1.
func wireIndex(name string, k int) int {
	var w int
	if _, err := fmt.Sscanf(name, "w%d", &w); err == nil && w >= 1 && w <= k {
		return w - 1
	}
	return -1
}

// bindGate maps the gate composite's variables onto selector and wire tables.
func bindGate(idx *hyperplonk.Index, wires []*mle.Table) ([]*mle.Table, error) {
	tabs := make([]*mle.Table, idx.Gate.NumVars())
	for i, name := range idx.Gate.VarNames {
		if si := selectorIndex(idx, name); si >= 0 {
			tabs[i] = idx.SelectorTabs[si]
		} else if w := wireIndex(name, len(wires)); w >= 0 {
			tabs[i] = wires[w]
		} else {
			return nil, fmt.Errorf("gate variable %q has no table", name)
		}
	}
	return tabs, nil
}

// stripEq drops the trailing eq factor of a registry composite: ProveZero
// supplies its own.
func stripEq(c *poly.Composite) *poly.Composite {
	eq := c.VarIndex("fr")
	if eq < 0 {
		return c
	}
	out := &poly.Composite{Name: c.Name + "/core", ID: -1}
	remap := make([]int, len(c.VarNames))
	for i, n := range c.VarNames {
		if i == eq {
			continue
		}
		remap[i] = len(out.VarNames)
		out.VarNames = append(out.VarNames, n)
		out.Roles = append(out.Roles, c.Roles[i])
	}
	for _, t := range c.Terms {
		nt := poly.Term{Coeff: t.Coeff}
		for _, f := range t.Factors {
			if f.Var != eq {
				nt.Factors = append(nt.Factors, poly.Factor{Var: remap[f.Var], Power: f.Power})
			}
		}
		out.Terms = append(out.Terms, nt)
	}
	return out
}

// bindPermCheck returns the PermCheck constraint for k wires and the
// argument's tables in its variable order.
func bindPermCheck(k int, alpha ff.Element, arg *perm.Argument) (*poly.Composite, []*mle.Table, error) {
	full := poly.PermCheckK(k, alpha)
	switch k {
	case 3:
		full = poly.VanillaPermCheck(alpha)
	case 5:
		full = poly.JellyfishPermCheck(alpha)
	}
	comp := stripEq(full)
	named := map[string]*mle.Table{"pi": arg.Pi, "p1": arg.P1, "p2": arg.P2, "phi": arg.Phi}
	for j := 0; j < k; j++ {
		named[fmt.Sprintf("D%d", j+1)] = arg.DTabs[j]
		named[fmt.Sprintf("N%d", j+1)] = arg.NTabs[j]
	}
	tabs := make([]*mle.Table, comp.NumVars())
	for i, name := range comp.VarNames {
		if tabs[i] = named[name]; tabs[i] == nil {
			return nil, nil, fmt.Errorf("permcheck variable %q has no table", name)
		}
	}
	return comp, tabs, nil
}

// claim says: polynomial poly of an opening set evaluates to value at point
// number point.
type claim struct {
	poly, point int
	value       ff.Element
}

// mainClaims lists the main opening's claims in the prover's order:
// selectors and wires at the gate point (gate-variable order), then each
// wire and its σ at the perm point.
func mainClaims(idx *hyperplonk.Index, proof *hyperplonk.Proof) []claim {
	numSel := len(idx.SelectorNames)
	var claims []claim
	for gi, name := range idx.Gate.VarNames {
		if si := selectorIndex(idx, name); si >= 0 {
			claims = append(claims, claim{si, 0, proof.GateEvals[gi]})
		} else if w := wireIndex(name, idx.Wires); w >= 0 {
			claims = append(claims, claim{numSel + w, 0, proof.GateEvals[gi]})
		}
	}
	for j := 0; j < idx.Wires; j++ {
		claims = append(claims,
			claim{numSel + j, 1, proof.WirePermEvals[j]},
			claim{numSel + idx.Wires + j, 1, proof.SigmaPermEvals[j]})
	}
	return claims
}

// openCheck runs one OpenCheck: Σ_k α^k·f_k(X)·eq(X, z_k) through SumCheck,
// then one batched PCS opening of Σ_i β^i·f_i at the SumCheck's point. With
// main set, the combine and the opening carry the per-layer span names.
func openCheck(tr *tracer, parent, op int, ts *transcript.Transcript, srs *pcs.SRS, label string, polys []*mle.Table, claims []claim, points [][]ff.Element, main bool, cfg sumcheck.Config) (*hyperplonk.OpenProof, error) {
	alpha := ts.ChallengeScalar(label + "/alpha")
	comp := &poly.Composite{Name: "OpenCheck", ID: 24}
	for i := range polys {
		comp.VarNames = append(comp.VarNames, fmt.Sprintf("f%d", i))
		comp.Roles = append(comp.Roles, poly.RoleDense)
	}
	for i := range points {
		comp.VarNames = append(comp.VarNames, fmt.Sprintf("eq%d", i))
		comp.Roles = append(comp.Roles, poly.RoleEq)
	}
	var sum, t ff.Element
	coeff := ff.One()
	for _, cl := range claims {
		comp.Terms = append(comp.Terms, poly.Term{Coeff: coeff, Factors: []poly.Factor{{Var: cl.poly, Power: 1}, {Var: len(polys) + cl.point, Power: 1}}})
		t.Mul(&coeff, &cl.value)
		sum.Add(&sum, &t)
		coeff.Mul(&coeff, &alpha)
	}
	tabs := append([]*mle.Table(nil), polys...)
	for _, pt := range points {
		tabs = append(tabs, mle.EqWorkers(pt, cfg.Workers))
	}
	assign, err := sumcheck.NewAssignment(comp, tabs)
	if err != nil {
		return nil, err
	}
	var inner *sumcheck.Proof
	var rStar []ff.Element
	tr.time("sumcheck.opencheck", parent, op, func() {
		inner, rStar, err = sumcheck.Prove(ts, assign, sum, cfg)
	})
	if err != nil {
		return nil, err
	}
	out := &hyperplonk.OpenProof{Sumcheck: inner}
	out.PolyEvals = append([]ff.Element(nil), inner.FinalEvals[:len(polys)]...)
	ts.AppendScalars(label+"/finals", out.PolyEvals)

	beta := ts.ChallengeScalar(label + "/beta")
	coeffs := make([]ff.Element, len(polys))
	coeffs[0] = ff.One()
	for i := 1; i < len(coeffs); i++ {
		coeffs[i].Mul(&coeffs[i-1], &beta)
	}
	for i := range out.PolyEvals {
		t.Mul(&coeffs[i], &out.PolyEvals[i])
		out.Opened.Add(&out.Opened, &t)
	}
	ts.AppendScalar(label+"/opened", &out.Opened)

	combineName, openName := "pcs.combine_v", "pcs.open17_v"
	if main {
		combineName, openName = "pcs.combine16_s", "pcs.open16_s"
	}
	var combined *mle.Table
	tr.time(combineName, parent, op, func() {
		combined, err = pcs.CombineTablesWorkers(polys, coeffs, cfg.Workers)
	})
	if err != nil {
		return nil, err
	}
	var opened ff.Element
	tr.time(openName, parent, op, func() {
		opened, out.PCS, err = srs.OpenWorkers(combined, rStar, cfg.Workers)
	})
	if err != nil {
		return nil, err
	}
	if !opened.Equal(&out.Opened) {
		return nil, fmt.Errorf("%s: opening value differs from the absorbed one", label)
	}
	return out, nil
}
