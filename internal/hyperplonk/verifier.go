package hyperplonk

import (
	"fmt"

	"zkphire/internal/ff"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
)

// Verify checks a HyperPlonk proof against the preprocessed index. All
// evaluation claims are anchored to commitments via the two OpenChecks; the
// only trust beyond the transcript is the PCS SRS.
func Verify(srs *pcs.SRS, idx *Index, proof *Proof) error {
	if idx.NumVars+1 > srs.MaxVars {
		return fmt.Errorf("hyperplonk: SRS supports %d vars, circuit needs %d (+1 for the product tree)", srs.MaxVars, idx.NumVars)
	}
	if len(proof.WireComms) != idx.Wires {
		return fmt.Errorf("hyperplonk: %d wire commitments, want %d", len(proof.WireComms), idx.Wires)
	}
	// Structural length checks up front: the wire format cannot know the
	// index, so a decoded proof may carry short or long evaluation lists —
	// reject them here rather than panic downstream.
	if len(proof.GateEvals) != idx.Gate.NumVars() {
		return fmt.Errorf("hyperplonk: %d gate evaluations, want %d", len(proof.GateEvals), idx.Gate.NumVars())
	}
	if len(proof.WirePermEvals) != idx.Wires || len(proof.SigmaPermEvals) != idx.Wires {
		return fmt.Errorf("hyperplonk: %d wire / %d sigma perm evaluations, want %d each",
			len(proof.WirePermEvals), len(proof.SigmaPermEvals), idx.Wires)
	}
	tr := newTranscript(idx)
	for _, comm := range proof.WireComms {
		appendComm(tr, "wire", comm)
	}

	// ---- Gate Identity. ----
	gate := idx.Gate
	rGate, wantGate, eqGate, err := sumcheck.VerifyZero(tr, gate, idx.NumVars, proof.GateZC)
	if err != nil {
		return fmt.Errorf("hyperplonk: gate zerocheck: %w", err)
	}
	if err := sumcheck.FinalCheckZero(gate, proof.GateEvals, &eqGate, &wantGate); err != nil {
		return fmt.Errorf("hyperplonk: gate final check: %w", err)
	}
	tr.AppendScalars("gate/evals", proof.GateEvals)

	// ---- Wire Identity. ----
	beta := tr.ChallengeScalar("perm/beta")
	gamma := tr.ChallengeScalar("perm/gamma")
	appendComm(tr, "perm/v", proof.VComm)
	alpha := tr.ChallengeScalar("perm/alpha")

	permComp := poly.PermCheckCore(idx.Wires, alpha)
	rPerm, wantPerm, eqPerm, err := sumcheck.VerifyZero(tr, permComp, idx.NumVars, proof.PermZC)
	if err != nil {
		return fmt.Errorf("hyperplonk: perm zerocheck: %w", err)
	}

	// The PermCheck constituents' final values, from the batch evaluation
	// claims: D_j(r) = w_j(r) + β·σ_j(r) + γ and N_j(r) = w_j(r) + β·id_j(r)
	// + γ, where id_j is public.
	d := make([]ff.Element, idx.Wires)
	n := make([]ff.Element, idx.Wires)
	for j := range idx.Wires {
		id := perm.IDEval(j, rPerm)
		d[j].Mul(&beta, &proof.SigmaPermEvals[j])
		d[j].Add(&d[j], &proof.WirePermEvals[j])
		d[j].Add(&d[j], &gamma)
		n[j].Mul(&beta, &id)
		n[j].Add(&n[j], &proof.WirePermEvals[j])
		n[j].Add(&n[j], &gamma)
	}
	v := proof.VEvals
	permFinals, err := poly.Bind(permComp, poly.PermCheckVars(v[0], v[1], v[2], v[3], d, n))
	if err != nil {
		return fmt.Errorf("hyperplonk: perm final values: %w", err)
	}
	if err := sumcheck.FinalCheckZero(permComp, permFinals, &eqPerm, &wantPerm); err != nil {
		return fmt.Errorf("hyperplonk: perm final check: %w", err)
	}
	tr.AppendScalars("perm/vevals", proof.VEvals[:])
	tr.AppendScalars("perm/wevals", proof.WirePermEvals)
	tr.AppendScalars("perm/sevals", proof.SigmaPermEvals)

	// ---- Opening. ----
	mainComms := mainOrder(idx.SelectorComms, proof.WireComms, idx.SigmaComms)
	if err := verifyOpenCheck(tr, srs, "open/main", mainComms, mainOpenSet(idx, proof, rGate, rPerm), idx.NumVars, proof.OpenMain); err != nil {
		return err
	}
	return verifyOpenCheck(tr, srs, "open/v", []pcs.Commitment{proof.VComm}, vOpenSet(proof, rPerm), idx.NumVars+1, proof.OpenV)
}
