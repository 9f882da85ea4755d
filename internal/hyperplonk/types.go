// Package hyperplonk implements the HyperPlonk protocol end-to-end over the
// substrates in this repository: witness commitments (MSM), Gate Identity
// (ZeroCheck), Wire Identity (permutation argument + PermCheck), Batch
// Evaluations, and Polynomial Opening (OpenCheck + batched PCS opening) —
// the five protocol steps of Section IV-A of the paper.
//
// The verifier's pairing checks are replaced by the PCS trapdoor check (see
// internal/pcs); everything the prover computes — and therefore everything
// zkPHIRE accelerates — is the genuine protocol workload.
package hyperplonk

import (
	"fmt"
	"sort"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/mle"
	"zkphire/internal/parallel"
	"zkphire/internal/pcs"
	"zkphire/internal/perm"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
)

// Index is the preprocessed ("universal setup + indexing") circuit data.
type Index struct {
	NumVars       int
	Wires         int
	SelectorNames []string
	SelectorTabs  []*mle.Table
	SelectorComms []pcs.Commitment
	// SigmaTabs are the wiring-permutation tables, a pure function of the
	// circuit's c.Perm. PreprocessWorkers fills them; a caller that sets
	// them to nil (a memory-budgeted session does) makes Prove rebuild them
	// from c.Perm in each step that reads them and drop that copy when the
	// step ends. The values are identical either way.
	SigmaTabs  []*mle.Table
	SigmaComms []pcs.Commitment
	// Gate is the circuit's constraint composite (without the eq factor).
	Gate *poly.Composite
}

// Proof is a complete HyperPlonk proof.
type Proof struct {
	WireComms []pcs.Commitment
	VComm     pcs.Commitment

	GateZC *sumcheck.ZeroCheckProof
	// GateEvals are the gate-constituent evaluations at the gate point
	// (selectors and wires in the gate composite's variable order).
	GateEvals []ff.Element

	PermZC *sumcheck.ZeroCheckProof
	// VEvals are ṽ at the four view points (π, p₁, p₂, ϕ order).
	VEvals [4]ff.Element
	// WirePermEvals and SigmaPermEvals are w_j and σ_j at the perm point.
	WirePermEvals  []ff.Element
	SigmaPermEvals []ff.Element

	OpenMain *OpenProof
	OpenV    *OpenProof
}

// OpenProof is one OpenCheck instance: a SumCheck combining several
// evaluation claims into one point, the claimed constituent values there,
// and a single batched PCS opening.
type OpenProof struct {
	Sumcheck *sumcheck.Proof
	// PolyEvals[i] is the claimed value of distinct polynomial i at the
	// OpenCheck's final point.
	PolyEvals []ff.Element
	// Opened is the value of the β-combined polynomial at the final point.
	// It is not on the wire: the verifier computes it from PolyEvals.
	Opened ff.Element
	// PCS is the single batched opening proof.
	PCS *pcs.OpeningProof
}

// Preprocess commits the circuit's selectors and wiring permutation on the
// full machine.
func Preprocess(srs *pcs.SRS, c *gates.Circuit) (*Index, error) {
	return PreprocessWorkers(srs, c, 0)
}

// PreprocessWorkers is Preprocess with a worker budget (<= 0 means
// GOMAXPROCS). The per-table commitments are independent and run
// concurrently with the budget divided among them.
func PreprocessWorkers(srs *pcs.SRS, c *gates.Circuit, workers int) (*Index, error) {
	if c.NumVars+1 > srs.MaxVars {
		return nil, fmt.Errorf("hyperplonk: SRS supports %d vars, circuit needs %d (+1 for the product tree)", srs.MaxVars, c.NumVars)
	}
	idx := &Index{NumVars: c.NumVars, Wires: len(c.Wires), Gate: c.Gate}

	// Warm the SRS's cached GLV φ-tables for every resident level this
	// circuit's proofs use (wire/selector commitments at NumVars, the
	// permutation product tree at NumVars+1, and the opening witness MSMs at
	// every level below).
	srs.WarmEndo(c.NumVars+1, workers)

	names := make([]string, 0, len(c.Selectors))
	//zkvet:ignore determinism keys are collected then sorted two lines below; only the sorted order reaches the index and the transcript
	for n := range c.Selectors {
		names = append(names, n)
	}
	sort.Strings(names)
	idx.SelectorNames = names
	for _, n := range names {
		idx.SelectorTabs = append(idx.SelectorTabs, c.Selectors[n])
	}
	idx.SigmaTabs = perm.SigmaTables(c.Perm, c.NumVars)

	tabs := append(append([]*mle.Table(nil), idx.SelectorTabs...), idx.SigmaTabs...)
	comms := make([]pcs.Commitment, len(tabs))
	errs := make([]error, len(tabs))
	per := parallel.Split(workers, len(tabs))
	parallel.Run(workers, len(tabs), func(i int) {
		comms[i], errs[i] = srs.CommitWorkers(tabs[i], per)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	numSel := len(idx.SelectorTabs)
	idx.SelectorComms = comms[:numSel:numSel]
	idx.SigmaComms = comms[numSel:]
	return idx, nil
}
