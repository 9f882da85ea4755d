package units

import "zkphire/internal/hw"

// PermQConfig models the Permutation Quotient Generator (Section IV-B5,
// Fig. 5): per-witness PEs that stream N_j and D_j elements (one per cycle
// after warmup), a batched modular-inverse array (batch size 2, 266 inverse
// units round-robined to start one inversion every two cycles without
// backpressure), and two shared multipliers for batching and output
// isolation.
type PermQConfig struct {
	PEs          int // fraction-MLE PEs (Table III: 1..4, plus one per wire)
	InverseUnits int
	Prime        hw.PrimeKind
}

// DefaultPermQ is the paper's design point.
func DefaultPermQ(prime hw.PrimeKind) PermQConfig {
	return PermQConfig{PEs: 2, InverseUnits: 266, Prime: prime}
}

// InverseLatency is the pipeline latency of one 255-bit modular inversion in
// cycles (binary extended-Euclid over 255 bits).
const InverseLatency = 510

// Area22 returns the generator's 22nm area: the inverse array, the two
// shared multipliers, the per-wire N/D pipelines (two multipliers each), and
// batching buffers/control (the 4.2× reduction over zkSpeed's
// per-inverse-multiplier scheme comes from this organization).
func (c PermQConfig) Area22() float64 {
	inv := float64(c.InverseUnits) * hw.ModInv255
	shared := 2 * hw.ModMul255(c.Prime)
	pipelines := float64(5*2) * hw.ModMul255(c.Prime) // 5 wire PEs × 2 muls
	buffers := 3.0                                    // global batch buffer + delay buffers
	return inv + shared + pipelines + buffers
}

// GenerateCycles models producing N, D, ϕ and streaming intermediates
// through HBM for a k-wire circuit of n rows:
//
//   - N_j/D_j generation: one element per cycle per wire PE;
//   - combining the per-wire factors: (k−1) multiplications per element on
//     the fraction PEs (throughput PEs/cycle);
//   - inversion of D: one inversion initiated every 2 cycles;
//   - ϕ = N·D⁻¹: overlapped with inversion output.
func (c PermQConfig) GenerateCycles(k, n float64) MSMResult {
	// The Fig. 5 unit is fully pipelined: N/D generation, combining (on the
	// forest's multipliers), batched inversion (one initiated every two
	// cycles, serving two elements each) and the ϕ multiply all overlap, so
	// steady state is one output element per cycle after the inverse-array
	// warmup.
	cycles := n + InverseLatency
	// Intermediates written to and read back from HBM (Section IV-B5).
	bytes := 2 * k * n * hw.ElementBytes * 2
	return MSMResult{Cycles: cycles, OffchipBytes: bytes}
}

// MLECombineConfig models the MLE Combine module (Section IV-B4): up to six
// SRAM-buffered operand streams through a fully pipelined element-wise
// multiply-accumulate path.
type MLECombineConfig struct {
	Buffers int
	Prime   hw.PrimeKind
}

// DefaultMLECombine returns the paper's module.
func DefaultMLECombine(prime hw.PrimeKind) MLECombineConfig {
	return MLECombineConfig{Buffers: 6, Prime: prime}
}

// Area22 returns the module's 22nm compute area (one MAC lane per buffer
// plus a small dot-product tree).
func (c MLECombineConfig) Area22() float64 {
	return float64(c.Buffers)*hw.ModMul255(c.Prime) + 4*hw.ModAdd255
}

// CombineCycles models one element-wise pass over k tables of n entries.
func (c MLECombineConfig) CombineCycles(k, n float64) MSMResult {
	passes := 1.0
	if k > float64(c.Buffers) {
		passes = k / float64(c.Buffers)
	}
	return MSMResult{
		Cycles:       n * passes,
		OffchipBytes: (k + 1) * n * hw.ElementBytes,
	}
}

// SHA3Config models the Fiat–Shamir hash block.
type SHA3Config struct{}

// Area22 is the OpenCores SHA3 core.
func (SHA3Config) Area22() float64 { return hw.SHA3Core }
