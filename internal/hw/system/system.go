// Package system composes the module models into the full zkPHIRE
// accelerator (Fig. 4) and schedules the five HyperPlonk protocol steps on
// it, including the Masked-ZeroCheck optimization that overlaps the Gate
// Identity SumCheck with the Wire Identity MSMs (Section IV-A).
package system

import (
	"fmt"

	"zkphire/internal/core"
	"zkphire/internal/hw"
	"zkphire/internal/hw/units"
	"zkphire/internal/poly"
	"zkphire/internal/workloads"
)

// Config is a full zkPHIRE design point (the Table III knobs).
type Config struct {
	SumCheck      core.Config
	MSM           units.MSMConfig
	PermQ         units.PermQConfig
	Combine       units.MLECombineConfig
	BandwidthGBps float64
	Prime         hw.PrimeKind
	// MaskZeroCheck overlaps the Gate Identity ZeroCheck with Wire Identity
	// MSMs.
	MaskZeroCheck bool
}

// Forest returns the derived Multifunction Forest: one tree per SumCheck
// product lane (the Table V exemplar's 80 trees = 16 PEs × 5 lanes).
func (c Config) Forest() units.ForestConfig {
	return units.DefaultForest(c.SumCheck.PEs, c.SumCheck.PLs, c.Prime)
}

// TableV returns the paper's 294 mm² exemplar design: 32 MSM PEs, 16
// SumCheck PEs with 7 EEs and 5 PLs (80 forest trees), 2 TB/s HBM3,
// fixed-prime multipliers, ZeroCheck masking on.
func TableV() Config {
	return Config{
		SumCheck:      core.Config{PEs: 16, EEs: 7, PLs: 5, BankSizeWords: 1 << 13, Prime: hw.FixedPrime},
		MSM:           units.MSMConfig{PEs: 32, WindowBits: 9, PointsPerPE: 8192, Prime: hw.FixedPrime},
		PermQ:         units.DefaultPermQ(hw.FixedPrime),
		Combine:       units.DefaultMLECombine(hw.FixedPrime),
		BandwidthGBps: 2048,
		Prime:         hw.FixedPrime,
		MaskZeroCheck: true,
	}
}

// AreaBreakdown reports module areas in mm² at 7nm (Table V rows).
type AreaBreakdown struct {
	MSM          float64
	Forest       float64
	SumCheck     float64
	Other        float64
	SRAM         float64
	Interconnect float64
	HBMPHY       float64
	PHYCount     int
	PHYKind      string
}

// TotalCompute is the logic area.
func (a AreaBreakdown) TotalCompute() float64 {
	return a.MSM + a.Forest + a.SumCheck + a.Other
}

// Total is the full die area.
func (a AreaBreakdown) Total() float64 {
	return a.TotalCompute() + a.SRAM + a.Interconnect + a.HBMPHY
}

// sumcheckAreaFactor covers the extension-adder chains, packing crossbars,
// FIFOs and control around each PE's update multipliers, calibrated to
// Table V (16 PEs ↔ 16.65 mm² at 7nm).
const sumcheckAreaFactor = 1.8

// otherAreaFactor covers the PermQ batch buffers, delay lines and module
// control, calibrated to Table V ("Other" 10.64 mm² at 7nm).
const otherAreaFactor = 2.7

// Area computes the full breakdown.
func (c Config) Area() AreaBreakdown {
	var a AreaBreakdown
	a.MSM = hw.To7nm(c.MSM.Area22())
	a.Forest = hw.To7nm(c.Forest().Area22())

	scMuls := float64(c.SumCheck.PEs*c.SumCheck.EEs) * hw.ModMul255(c.Prime)
	scAdders := float64(c.SumCheck.PEs*c.SumCheck.EEs*4) * hw.ModAdd255
	a.SumCheck = hw.To7nm((scMuls + scAdders) * sumcheckAreaFactor)

	other := c.PermQ.Area22() + c.Combine.Area22() + units.SHA3Config{}.Area22()
	a.Other = hw.To7nm(other * otherAreaFactor)

	sramBytes := c.MSM.SRAMBytes()*1.7 + // double-buffered point stores
		c.SumCheck.ScratchpadBytes() +
		3*6*(1<<20) // PermQ, Combine, Forest local buffers (6 MB each)
	a.SRAM = hw.SRAMArea7(sramBytes / (1 << 20))

	a.Interconnect = (a.TotalCompute() + a.SRAM) * 0.11 // two bit-sliced crossbars + shared bus
	a.HBMPHY, a.PHYCount, a.PHYKind = hw.PHYBudget(c.BandwidthGBps)
	return a
}

// PowerBreakdown reports module powers in W (Table V rows).
type PowerBreakdown struct {
	Compute float64
	SRAM    float64
	NoC     float64
	HBM     float64
}

// Total is the full-chip average power.
func (p PowerBreakdown) Total() float64 { return p.Compute + p.SRAM + p.NoC + p.HBM }

// Power derives average power from the area breakdown via the Table V
// power densities.
func (c Config) Power() PowerBreakdown {
	a := c.Area()
	return PowerBreakdown{
		Compute: a.TotalCompute() * hw.PowerDensityCompute,
		SRAM:    a.SRAM * hw.PowerDensitySRAM,
		NoC:     a.Interconnect * hw.PowerDensityNoC,
		HBM:     float64(a.PHYCount) * hw.PowerPerHBM3PHY * (c.BandwidthGBps / 2048),
	}
}

// Validate checks the whole design.
func (c Config) Validate() error {
	if err := c.SumCheck.Validate(); err != nil {
		return err
	}
	if c.MSM.PEs < 1 || c.MSM.WindowBits < 4 || c.MSM.WindowBits > 16 {
		return fmt.Errorf("system: bad MSM config")
	}
	if c.BandwidthGBps <= 0 {
		return fmt.Errorf("system: bandwidth must be positive")
	}
	return nil
}

// gatePolys returns the gate and perm composites for a gate kind. The α
// scalar is representative; runtimes do not depend on its value.
func gatePolys(kind workloads.GateKind) (gate, permCheck *poly.Composite) {
	alpha := newAlpha()
	if kind == workloads.Jellyfish {
		return poly.JellyfishZeroCheck(), poly.JellyfishPermCheck(alpha)
	}
	return poly.VanillaZeroCheck(), poly.VanillaPermCheck(alpha)
}
