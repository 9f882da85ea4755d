package system

import (
	"fmt"
	"math"

	"zkphire/internal/core"
	"zkphire/internal/ff"
	"zkphire/internal/hw"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/poly"
	"zkphire/internal/workloads"
)

func newAlpha() ff.Element { return ff.NewElement(2) }

// CPUModel re-exports the calibrated CPU cost model.
type CPUModel = cpumodel.Model

// RuntimeBreakdown reports per-step times in seconds (the Fig. 11/12
// categories).
type RuntimeBreakdown struct {
	WitnessMSM float64
	ZeroCheck  float64 // Gate Identity
	PermGen    float64 // N/D/ϕ generation + product tree
	WiringMSM  float64 // commit the product-tree MLE v
	PermCheck  float64
	BatchEval  float64
	OpenCheck  float64
	OpenMSM    float64 // Polynomial Opening MSMs
	Masked     bool
	// MaskSavings is the time hidden by overlapping the Gate Identity
	// ZeroCheck with the Wire Identity MSMs.
	MaskSavings float64
}

// Total returns end-to-end proving time.
func (r RuntimeBreakdown) Total() float64 {
	t := r.WitnessMSM + r.ZeroCheck + r.PermGen + r.WiringMSM + r.PermCheck +
		r.BatchEval + r.OpenCheck + r.OpenMSM
	return t - r.MaskSavings
}

// ProveTime schedules the full HyperPlonk protocol on the design for a
// workload of 2^logGates gates of the given kind.
func (c Config) ProveTime(kind workloads.GateKind, logGates int, sparsity hw.SparsityProfile) (RuntimeBreakdown, error) {
	gate, permP := gatePolys(kind)
	return c.schedule(gate, permP, kind.Wires(), logGates, sparsity)
}

// HighDegreeProtocol runs the Figure 14 experiment: the full protocol with
// the custom gate family f = q₁w₁ + q₂w₂ + q₃·w₁^{d−1}·w₂ + q_c. The
// witness count is fixed (two wires), so MSM time is constant across d and
// the SumCheck share grows with degree.
func (c Config) HighDegreeProtocol(d, logGates int) (RuntimeBreakdown, error) {
	return c.schedule(poly.HighDegree(d).MulByEq("fr"), poly.PermCheckK(2, newAlpha()), 2, logGates, hw.DefaultSparsity)
}

// schedule runs the five protocol steps for a gate ZeroCheck composite, its
// PermCheck composite over the given number of wires, and the witness
// sparsity, on 2^logGates rows.
func (c Config) schedule(gate, permP *poly.Composite, wires, logGates int, sparsity hw.SparsityProfile) (RuntimeBreakdown, error) {
	if err := c.Validate(); err != nil {
		return RuntimeBreakdown{}, err
	}
	if logGates < 4 || logGates > 34 {
		return RuntimeBreakdown{}, fmt.Errorf("system: unreasonable log gate count %d", logGates)
	}
	n := float64(uint64(1) << uint(logGates))
	k := float64(wires)
	mem := hw.NewMemory(c.BandwidthGBps)
	openP := poly.OpenCheck(6)
	forest := c.Forest()

	var r RuntimeBreakdown
	toSec := func(cycles float64) float64 { return cycles / (hw.ClockGHz * 1e9) }
	msmTime := func(res unitsResult) float64 {
		return toSec(math.Max(res.Cycles, mem.TransferCycles(res.OffchipBytes)))
	}

	// Step 1: witness commitments — k sparse MSMs.
	sp := c.MSM.SparseCycles(n, sparsity)
	r.WitnessMSM = k * msmTime(unitsResult{sp.Cycles, sp.OffchipBytes})

	// Step 2: Gate Identity ZeroCheck.
	gw := core.Workload{Composite: gate, NumVars: logGates, Sparsity: sparsity, BuildEqInRound1: true}
	gres, err := core.Simulate(c.SumCheck, gw, mem)
	if err != nil {
		return r, err
	}
	r.ZeroCheck = gres.Seconds

	// Step 3: Wire Identity.
	pg := c.PermQ.GenerateCycles(k, n)
	tree := forest.ProductMLECycles(n)
	r.PermGen = msmTime(unitsResult{pg.Cycles, pg.OffchipBytes}) +
		msmTime(unitsResult{tree.Cycles, tree.OffchipBytes})
	vCommit := c.MSM.DenseCycles(2 * n)
	r.WiringMSM = msmTime(unitsResult{vCommit.Cycles, vCommit.OffchipBytes})

	pw := core.Workload{Composite: permP, NumVars: logGates, Sparsity: denseProfile(sparsity), BuildEqInRound1: true}
	pres, err := core.Simulate(c.SumCheck, pw, mem)
	if err != nil {
		return r, err
	}
	r.PermCheck = pres.Seconds

	// Step 4: Batch Evaluations on the Multifunction Forest: selectors,
	// wires, sigmas (n each) and the product tree (2n).
	numSel := float64(len(gate.VarNames)) - k - 1 // gate constituents minus wires minus eq
	committed := numSel + 2*k
	ev := forest.EvalCycles(committed, n)
	evV := forest.EvalCycles(1, 2*n)
	r.BatchEval = msmTime(unitsResult{ev.Cycles, ev.OffchipBytes}) +
		msmTime(unitsResult{evV.Cycles, evV.OffchipBytes})

	// Step 5: Polynomial Opening — OpenCheck SumCheck plus the combined
	// opening MSMs (≈2n points for the µ-variable set, 2n for the tree).
	ow := core.Workload{Composite: openP, NumVars: logGates, Sparsity: denseProfile(sparsity), BuildEqInRound1: true}
	ores, err := core.Simulate(c.SumCheck, ow, mem)
	if err != nil {
		return r, err
	}
	r.OpenCheck = ores.Seconds
	om1 := c.MSM.DenseCycles(n)
	om2 := c.MSM.DenseCycles(2 * n)
	r.OpenMSM = msmTime(unitsResult{om1.Cycles, om1.OffchipBytes}) +
		msmTime(unitsResult{om2.Cycles, om2.OffchipBytes})

	// Masked ZeroCheck: hide the Gate Identity under the Wire Identity MSM
	// phase (MSMs have high reuse and low bandwidth pressure).
	if c.MaskZeroCheck {
		r.Masked = true
		r.MaskSavings = math.Min(r.ZeroCheck, r.WiringMSM+r.PermGen)
	}
	return r, nil
}

type unitsResult struct {
	Cycles       float64
	OffchipBytes float64
}

// denseProfile marks every constituent dense (perm/open SumChecks operate on
// dense intermediate MLEs).
func denseProfile(s hw.SparsityProfile) hw.SparsityProfile {
	s.WitnessDenseFraction = 1
	return s
}

// CPUProveTime estimates the 32-thread CPU baseline for the same protocol,
// using the calibrated cost model. protocolOverhead covers witness
// generation, transposes and allocator overheads the component model does
// not count (calibrated against the paper's 2^24 Jellyfish ≈ 183 s).
func CPUProveTime(m CPUModel, kind workloads.GateKind, logGates int) RuntimeBreakdown {
	n := float64(uint64(1) << uint(logGates))
	k := float64(kind.Wires())
	gate, permP := gatePolys(kind)
	openP := poly.OpenCheck(6)
	const protocolOverhead = 1.5

	var r RuntimeBreakdown
	r.WitnessMSM = k * m.MSMSeconds(n, 0.45) * protocolOverhead
	r.ZeroCheck = m.SumcheckSeconds(gate, logGates) * protocolOverhead
	// N/D/ϕ generation: per-row multiplications plus per-element inversions
	// (the baseline inverts unbatched), plus the product tree.
	r.PermGen = (m.ElementwiseSeconds(2*k+8, n) + m.InversionSeconds(n)) * protocolOverhead
	r.WiringMSM = m.MSMSeconds(2*n, 0) * protocolOverhead
	r.PermCheck = m.SumcheckSeconds(permP, logGates) * protocolOverhead
	numSel := float64(len(gate.VarNames)) - k - 1
	r.BatchEval = m.ElementwiseSeconds(2*(numSel+2*k+2), n) * protocolOverhead
	r.OpenCheck = m.SumcheckSeconds(openP, logGates) * protocolOverhead
	r.OpenMSM = m.MSMSeconds(n, 0)*protocolOverhead + m.MSMSeconds(2*n, 0)*protocolOverhead
	return r
}
