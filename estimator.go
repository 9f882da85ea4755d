package zkphire

import (
	"fmt"

	"zkphire/internal/core"
	"zkphire/internal/hw"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/hw/system"
	"zkphire/internal/hw/zkspeed"
	"zkphire/internal/poly"
)

// Estimate is a performance estimate from a hardware (or software) model.
// Field scope depends on the call: EstimateProtocol reports whole-chip
// AreaMM2 and PowerW; EstimateSumCheck reports the SumCheck UNIT's area but
// still the chip's power envelope (the unit never runs without the rest of
// the die powered) — don't divide PowerW by AreaMM2 across that pair.
type Estimate struct {
	Seconds     float64
	Utilization float64
	AreaMM2     float64
	PowerW      float64
}

// Estimator models a prover backend. Three implementations ship with the
// package — the zkPHIRE accelerator (DefaultAccelerator), the zkSpeed+
// baseline ASIC (NewZKSpeedEstimator), and the paper's EPYC-7502 CPU
// baseline (NewCPUEstimator) — so accelerator-vs-baseline comparisons are
// one polymorphic call over the same workload.
type Estimator interface {
	// Name identifies the backend in reports.
	Name() string
	// EstimateProtocol models the full HyperPlonk prover for 2^logGates
	// gates of the given arithmetization.
	EstimateProtocol(kind Arithmetization, logGates int) (Estimate, error)
	// EstimateSumCheck models one SumCheck of a Table I constraint over
	// 2^logGates gates. Backends that cannot run a constraint (e.g. a
	// fixed-function unit given a Halo2 or Jellyfish polynomial) return an
	// error.
	EstimateSumCheck(tableID, logGates int) (Estimate, error)
}

// Estimators returns the three standard backends: the zkPHIRE Table V
// design, the zkSpeed+ baseline, and the 32-thread CPU baseline.
func Estimators() []Estimator {
	return []Estimator{DefaultAccelerator(), NewZKSpeedEstimator(), NewCPUEstimator(32)}
}

// --- zkPHIRE accelerator ---

// Accelerator is a configured zkPHIRE design point. It implements
// Estimator.
type Accelerator struct {
	cfg system.Config
}

// DefaultAccelerator returns the paper's Table V exemplar (294 mm², 2 TB/s).
func DefaultAccelerator() *Accelerator {
	return &Accelerator{cfg: system.TableV()}
}

// Name identifies the backend.
func (a *Accelerator) Name() string { return "zkPHIRE" }

// EstimateSumCheck models one SumCheck of a Table I constraint over
// 2^logGates gates on the accelerator's programmable SumCheck unit.
// AreaMM2 is the unit's area; PowerW is the chip's average power envelope.
func (a *Accelerator) EstimateSumCheck(tableID, logGates int) (Estimate, error) {
	if tableID < 0 || tableID >= poly.NumRegistered {
		return Estimate{}, fmt.Errorf("zkphire: unknown Table I constraint %d", tableID)
	}
	w := core.NewWorkload(poly.Registered(tableID), logGates)
	res, err := core.Simulate(a.cfg.SumCheck, w, hw.NewMemory(a.cfg.BandwidthGBps))
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Seconds:     res.Seconds,
		Utilization: res.Utilization,
		AreaMM2:     a.cfg.SumCheck.Area7(),
		PowerW:      a.cfg.Power().Total(),
	}, nil
}

// EstimateProtocol models the full HyperPlonk protocol for 2^logGates gates
// on the Table V system schedule.
func (a *Accelerator) EstimateProtocol(kind Arithmetization, logGates int) (Estimate, error) {
	r, err := a.cfg.ProveTime(kind, logGates, hw.DefaultSparsity)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Seconds: r.Total(),
		AreaMM2: a.cfg.Area().Total(),
		PowerW:  a.cfg.Power().Total(),
	}, nil
}

// --- zkSpeed+ baseline ---

// ZKSpeedEstimator models the zkSpeed+ baseline (ISCA'25), the only prior
// HyperPlonk accelerator. Its RTL is closed, so the model derives runtimes
// from a zkPHIRE reference simulation at the same bandwidth via the
// published Fig. 9 per-check ratios. The backend is fixed-function: it only
// accepts Vanilla-gate workloads and scales to 2^24 gates (its global
// scratchpad grows with gate count).
type ZKSpeedEstimator struct{}

// NewZKSpeedEstimator returns the zkSpeed+ model.
func NewZKSpeedEstimator() *ZKSpeedEstimator { return &ZKSpeedEstimator{} }

// Name identifies the backend.
func (z *ZKSpeedEstimator) Name() string { return "zkSpeed+" }

// referenceConfig is the zkPHIRE design the published ratios are anchored
// to: the Table V schedule without zkPHIRE's Masked-ZeroCheck optimization
// (zkSpeed has no masking), at zkSpeed's 2 TB/s memory system.
func (z *ZKSpeedEstimator) referenceConfig() system.Config {
	cfg := system.TableV()
	cfg.MaskZeroCheck = false
	cfg.BandwidthGBps = zkspeed.BandwidthGBps
	return cfg
}

// checkRatio maps the Vanilla Table I check IDs onto the published Fig. 9
// zkPHIRE-vs-zkSpeed+ ratios.
func checkRatio(tableID int) (float64, bool) {
	switch tableID {
	case VanillaZeroCheckID:
		return zkspeed.VanillaVsPlusZeroCheck, true
	case VanillaPermCheckID:
		return zkspeed.VanillaVsPlusPermCheck, true
	case OpenCheckID:
		return zkspeed.VanillaVsPlusOpenCheck, true
	}
	return 0, false
}

// EstimateSumCheck models one Vanilla HyperPlonk check on zkSpeed's
// fixed-function SumCheck core. Jellyfish and Halo2 constraints return an
// error — the programmability gap the paper's Fig. 9 quantifies.
func (z *ZKSpeedEstimator) EstimateSumCheck(tableID, logGates int) (Estimate, error) {
	if tableID < 0 || tableID >= poly.NumRegistered {
		return Estimate{}, fmt.Errorf("zkphire: unknown Table I constraint %d", tableID)
	}
	ratio, ok := checkRatio(tableID)
	if !ok {
		return Estimate{}, fmt.Errorf("zkphire: zkSpeed's fixed-function core cannot run Table I constraint %d (Vanilla checks only)", tableID)
	}
	if logGates > zkspeed.MaxLogGates {
		return Estimate{}, fmt.Errorf("zkphire: zkSpeed scales to 2^%d gates, got 2^%d", zkspeed.MaxLogGates, logGates)
	}
	cfg := z.referenceConfig()
	w := core.NewWorkload(poly.Registered(tableID), logGates)
	res, err := core.Simulate(cfg.SumCheck, w, hw.NewMemory(cfg.BandwidthGBps))
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Seconds: res.Seconds * ratio,
		AreaMM2: zkspeed.SumcheckUnitAreaMM2,
		PowerW:  zkspeed.PowerW,
	}, nil
}

// EstimateProtocol models the full HyperPlonk prover on zkSpeed+: the
// SumCheck steps of a zkPHIRE reference run are rescaled by the published
// per-check ratios; the MSM and generation steps carry over (both designs
// drive 2 TB/s HBM with comparable MSM throughput).
func (z *ZKSpeedEstimator) EstimateProtocol(kind Arithmetization, logGates int) (Estimate, error) {
	if kind != Vanilla {
		return Estimate{}, fmt.Errorf("zkphire: zkSpeed's fixed-function core supports Vanilla gates only, got %s", kind)
	}
	if logGates > zkspeed.MaxLogGates {
		return Estimate{}, fmt.Errorf("zkphire: zkSpeed scales to 2^%d gates, got 2^%d", zkspeed.MaxLogGates, logGates)
	}
	cfg := z.referenceConfig()
	r, err := cfg.ProveTime(kind, logGates, hw.DefaultSparsity)
	if err != nil {
		return Estimate{}, err
	}
	ref := zkspeed.SumcheckChecks{
		ZeroCheckMS: r.ZeroCheck * 1e3,
		PermCheckMS: r.PermCheck * 1e3,
		OpenCheckMS: r.OpenCheck * 1e3,
	}
	checks := zkspeed.PlusChecksFrom(ref)
	rest := r.WitnessMSM + r.PermGen + r.WiringMSM + r.BatchEval + r.OpenMSM
	return Estimate{
		Seconds: rest + checks.Total()/1e3,
		AreaMM2: zkspeed.AreaMM2,
		PowerW:  zkspeed.PowerW,
	}, nil
}

// --- CPU baseline ---

// CPUEstimator wraps the calibrated EPYC-7502 cost model from
// internal/hw/cpumodel. It implements Estimator.
type CPUEstimator struct {
	model   cpumodel.Model
	threads int
}

// NewCPUEstimator returns the paper-calibrated CPU model at the given
// thread count (32 reproduces the Fig. 12 baseline).
func NewCPUEstimator(threads int) *CPUEstimator {
	if threads <= 0 {
		threads = 1
	}
	return &CPUEstimator{model: cpumodel.PaperCPU(threads), threads: threads}
}

// Name identifies the backend.
func (c *CPUEstimator) Name() string {
	return fmt.Sprintf("CPU (EPYC-7502, %d threads)", c.threads)
}

// EstimateSumCheck models one Table I SumCheck on the CPU. Every registered
// constraint runs — software is the fully programmable baseline.
func (c *CPUEstimator) EstimateSumCheck(tableID, logGates int) (Estimate, error) {
	if tableID < 0 || tableID >= poly.NumRegistered {
		return Estimate{}, fmt.Errorf("zkphire: unknown Table I constraint %d", tableID)
	}
	return Estimate{
		Seconds: c.model.SumcheckSeconds(poly.Registered(tableID), logGates),
		PowerW:  cpumodel.TDPWatts,
	}, nil
}

// EstimateProtocol models the full HyperPlonk prover on the CPU baseline.
// AreaMM2 stays zero: the paper publishes no die-area figure for the CPU.
func (c *CPUEstimator) EstimateProtocol(kind Arithmetization, logGates int) (Estimate, error) {
	if logGates < 4 || logGates > 34 {
		return Estimate{}, fmt.Errorf("zkphire: unreasonable log gate count %d", logGates)
	}
	r := system.CPUProveTime(c.model, kind, logGates)
	return Estimate{
		Seconds: r.Total(),
		PowerW:  cpumodel.TDPWatts,
	}, nil
}

var (
	_ Estimator = (*Accelerator)(nil)
	_ Estimator = (*ZKSpeedEstimator)(nil)
	_ Estimator = (*CPUEstimator)(nil)
)
