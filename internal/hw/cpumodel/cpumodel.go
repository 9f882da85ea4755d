// Package cpumodel provides the CPU (and reference GPU) cost models used as
// baselines throughout the evaluation. The model counts the same modular
// multiplications and group operations the protocol performs and applies
// per-operation costs calibrated against the paper's published EPYC-7502
// measurements; the companion calibration helpers measure this machine's
// actual Go kernels, and bench/README.md's replay-vs-cpumodel table records
// the measured prover beside this model.
package cpumodel

import (
	"time"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
)

// TDPWatts is the EPYC-7502's rated TDP — the power figure baseline
// comparisons report for the CPU.
const TDPWatts = 180.0

// Model holds the calibrated per-operation costs.
type Model struct {
	// NsPerMul is the effective cost of one 255-bit modular multiplication
	// in a SumCheck inner loop (including adds, loads, and cache misses).
	NsPerMul float64
	// NsPerPointOp is the effective cost of one elliptic-curve point
	// addition/doubling in an MSM inner loop.
	NsPerPointOp float64
	// NsPerInverse is the cost of one modular inversion (the Rust baseline
	// inverts per element when building ϕ).
	NsPerInverse float64
	// Threads is the CPU parallelism.
	Threads int
	// ParallelEfficiency discounts scaling losses beyond one thread.
	ParallelEfficiency float64
}

// PaperCPU is calibrated against the paper's EPYC-7502 measurements:
// Table II's poly 22 (Jellyfish ZeroCheck, 2^24 gates, 4 threads) takes
// 74.2 s and CountMuls(poly22, 24) ≈ 8.24e9, pinning NsPerMul ≈ 32;
// 32-thread protocol totals (Fig. 12a, 183 s) pin the parallel efficiency
// at ≈0.4 (the Rust baseline is memory-bound at high thread counts).
func PaperCPU(threads int) Model {
	eff := 0.85
	if threads > 8 {
		eff = 0.4
	}
	return Model{
		NsPerMul:           32,
		NsPerPointOp:       400,
		NsPerInverse:       8000,
		Threads:            threads,
		ParallelEfficiency: eff,
	}
}

// effectiveThreads returns the parallel speedup factor.
func (m Model) effectiveThreads() float64 {
	t := float64(m.Threads)
	if t <= 1 {
		return 1
	}
	return 1 + (t-1)*m.ParallelEfficiency
}

// SumcheckSeconds estimates one SumCheck over 2^numVars gates.
func (m Model) SumcheckSeconds(c *poly.Composite, numVars int) float64 {
	muls := float64(sumcheck.CountMuls(c, numVars))
	return muls * m.NsPerMul / m.effectiveThreads() / 1e9
}

// MSMSeconds estimates one n-point Pippenger MSM (window ≈ 13 bits at CPU
// scale: ~20 windows, one bucket addition per point per window plus the
// running-sum reductions).
func (m Model) MSMSeconds(n float64, sparseFraction float64) float64 {
	effN := n * (1 - sparseFraction)
	const windows = 20.0
	ops := windows * (effN + 2*16384)
	return ops * m.NsPerPointOp / m.effectiveThreads() / 1e9
}

// InversionSeconds estimates n modular inversions.
func (m Model) InversionSeconds(n float64) float64 {
	return n * m.NsPerInverse / m.effectiveThreads() / 1e9
}

// ElementwiseSeconds estimates k streaming passes of n field muls.
func (m Model) ElementwiseSeconds(k, n float64) float64 {
	return k * n * m.NsPerMul / m.effectiveThreads() / 1e9
}

// GPU reference numbers (NVIDIA A100 + ICICLE, paper Table II). No GPU is
// available in this environment; these published constants stand in as the
// comparator (DESIGN.md substitution table).
var GPUTable2MS = map[string]float64{
	"Spartan1": 571,
	"Spartan2": 586,
	"ABC12":    5376,
	"ABC6":     1440,
	"ABC4":     3460,
	"HPPoly20": 1089,
}

// Calibration measures this machine's actual Go kernels so reported CPU
// baselines can be cross-checked against the analytic model.
type Calibration struct {
	MeasuredNsPerMul    float64
	MeasuredSumcheckNs  float64 // one Vanilla ZeroCheck at CalibrationVars
	PredictedSumcheckNs float64
	CalibrationVars     int
}

// Calibrate runs a small real SumCheck and a multiplication microbenchmark.
func Calibrate(numVars int) Calibration {
	cal := Calibration{CalibrationVars: numVars}

	// Microbench: chained modular multiplications.
	rng := ff.NewRand(1)
	a, b := rng.Element(), rng.Element()
	const iters = 200000
	start := time.Now()
	for i := 0; i < iters; i++ {
		a.Mul(&a, &b)
	}
	cal.MeasuredNsPerMul = float64(time.Since(start).Nanoseconds()) / iters

	// Real SumCheck at a modest size.
	c := poly.VanillaZeroCheck()
	n := 1 << uint(numVars)
	tables := make([]*mle.Table, c.NumVars())
	for i := range tables {
		switch c.Roles[i] {
		case poly.RoleEq:
			tables[i] = mle.Eq(rng.Elements(numVars))
		case poly.RoleWitness:
			tables[i] = mle.FromEvals(rng.SparseElements(n, 0.1))
		default:
			evals := make([]ff.Element, n)
			for j := range evals {
				if rng.Intn(2) == 1 {
					evals[j] = ff.One()
				}
			}
			tables[i] = mle.FromEvals(evals)
		}
	}
	assign, err := sumcheck.NewAssignment(c, tables)
	if err != nil {
		panic(err)
	}
	claim := assign.SumAll()
	tr := transcript.New("cal")
	start = time.Now()
	if _, _, err := sumcheck.Prove(tr, assign, claim, sumcheck.Config{Workers: 1}); err != nil {
		panic(err)
	}
	cal.MeasuredSumcheckNs = float64(time.Since(start).Nanoseconds())

	m := Model{NsPerMul: cal.MeasuredNsPerMul, Threads: 1, ParallelEfficiency: 1}
	cal.PredictedSumcheckNs = m.SumcheckSeconds(c, numVars) * 1e9
	return cal
}
