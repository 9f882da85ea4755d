// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section VI). Each benchmark drives the same code path
// the cmd/experiments subcommand uses. Benchmarks report custom metrics (model
// milliseconds, speedups) alongside wall-clock time of the models themselves;
// the measured-vs-modelled comparison is bench/README.md's replay-vs-cpumodel
// table.
package zkphire

import (
	"context"
	"math"
	"testing"

	"zkphire/internal/core"
	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/hw"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/hw/dse"
	"zkphire/internal/hw/system"
	"zkphire/internal/hw/zkspeed"
	"zkphire/internal/mle"
	"zkphire/internal/poly"
	"zkphire/internal/sumcheck"
	"zkphire/internal/transcript"
	"zkphire/internal/workloads"
)

// BenchmarkTable1Registry exercises every Table I constraint: expansion,
// validation, and a real (small) SumCheck prove/verify round trip.
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for id := 0; id < poly.NumRegistered; id++ {
			c := poly.Registered(id)
			if err := c.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1SumchecksReal proves one real SumCheck per Table I
// constraint at 2^10 rows — the functional ground truth behind every model.
func BenchmarkTable1SumchecksReal(b *testing.B) {
	b.ReportAllocs()
	const numVars = 10
	rng := ff.NewRand(1)
	type inst struct {
		c      *poly.Composite
		assign *sumcheck.Assignment
		claim  ff.Element
	}
	var insts []inst
	for id := 0; id < poly.NumRegistered; id++ {
		c := poly.Registered(id)
		tables := make([]*mle.Table, c.NumVars())
		for i := range tables {
			switch c.Roles[i] {
			case poly.RoleEq:
				tables[i] = mle.Eq(rng.Elements(numVars))
			case poly.RoleWitness:
				tables[i] = mle.FromEvals(rng.SparseElements(1<<numVars, 0.1))
			default:
				tables[i] = mle.FromEvals(rng.Elements(1 << numVars))
			}
		}
		a, err := sumcheck.NewAssignment(c, tables)
		if err != nil {
			b.Fatal(err)
		}
		insts = append(insts, inst{c, a, a.SumAll()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := insts[i%len(insts)]
		tr := transcript.New("bench")
		if _, _, err := sumcheck.Prove(tr, in.assign, in.claim, sumcheck.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Sweep runs the SumCheck-unit design search across bandwidth
// tiers with the λ=0.8 objective.
func BenchmarkFig6Sweep(b *testing.B) {
	var polys []*poly.Composite
	for id := 0; id <= 19; id++ {
		polys = append(polys, poly.Registered(id))
	}
	cpu := cpumodel.PaperCPU(4)
	cpuSec := make([]float64, len(polys))
	for i, p := range polys {
		cpuSec[i] = cpu.SumcheckSeconds(p, 20)
	}
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		for _, bw := range []float64{64, 1024, 4096} {
			best, _ := dse.UnitSearch(polys, 20, bw, 37, 0.8, cpuSec)
			last = best.GeomeanSpeedup
		}
	}
	b.ReportMetric(last, "geomean-speedup-4TBs")
}

// BenchmarkFig7HighDegree sweeps polynomial degree 2..30 on a fixed design.
func BenchmarkFig7HighDegree(b *testing.B) {
	cfg := core.Config{PEs: 16, EEs: 5, PLs: 8, BankSizeWords: 1 << 13, Prime: hw.FixedPrime}
	mem := hw.NewMemory(1024)
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for d := 2; d <= 30; d++ {
			res, err := core.Simulate(cfg, core.NewWorkload(poly.HighDegree(d), 20), mem)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Seconds
		}
	}
	b.ReportMetric(total*1e3, "sweep-total-model-ms")
}

// BenchmarkFig8Scheduler measures the scheduler across EE counts and degrees
// (the graph-decomposition hot path).
func BenchmarkFig8Scheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for ee := 2; ee <= 7; ee++ {
			for d := 2; d <= 30; d++ {
				if _, err := core.Schedule(poly.HighDegree(d), ee); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig9PriorASIC models the Fig. 9 comparison set: Vanilla and
// Jellyfish checks at the iso-zkSpeed-area design point.
func BenchmarkFig9PriorASIC(b *testing.B) {
	cfg := core.Config{PEs: 8, EEs: 2, PLs: 7, BankSizeWords: 1 << 13, Prime: hw.FixedPrime}
	mem := hw.NewMemory(zkspeed.BandwidthGBps)
	checks := []*poly.Composite{
		poly.Registered(20), poly.Registered(21), poly.Registered(24),
		poly.Registered(22), poly.Registered(23),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range checks {
			if _, err := core.Simulate(cfg, core.NewWorkload(c, 24), mem); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2Sumchecks models the Table II workload set at N=24.
func BenchmarkTable2Sumchecks(b *testing.B) {
	cfg := core.Config{PEs: 8, EEs: 2, PLs: 7, BankSizeWords: 1 << 13, Prime: hw.FixedPrime}
	mem := hw.NewMemory(1024)
	set := []struct {
		c  *poly.Composite
		lg int
	}{
		{poly.Registered(1), 25}, {poly.Registered(2), 25},
		{poly.ProductGate(3), 24}, {poly.VanillaGate(), 24},
		{poly.Registered(21), 24}, {poly.Registered(22), 24},
		{poly.Registered(23), 24}, {poly.Registered(24), 24},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range set {
			if _, err := core.Simulate(cfg, core.NewWorkload(s.c, s.lg), mem); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig10Pareto runs the (coarse) Table III sweep and Pareto
// extraction for 2^24 Jellyfish gates.
func BenchmarkFig10Pareto(b *testing.B) {
	var frontLen int
	for i := 0; i < b.N; i++ {
		pts := dse.SweepSystem(workloads.Jellyfish, 24, dse.SweepOptions{
			Coarse:     true,
			Bandwidths: []float64{512, 2048},
		})
		frontLen = len(dse.Pareto(pts))
	}
	b.ReportMetric(float64(frontLen), "pareto-points")
}

// BenchmarkFig11Breakdowns computes area and runtime breakdowns for the
// Table V design.
func BenchmarkFig11Breakdowns(b *testing.B) {
	cfg := system.TableV()
	for i := 0; i < b.N; i++ {
		a := cfg.Area()
		if a.Total() <= 0 {
			b.Fatal("bad area")
		}
		if _, err := cfg.ProveTime(workloads.Jellyfish, 24, hw.DefaultSparsity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Breakdown models the CPU-vs-zkPHIRE comparison and reports
// the headline speedup as a metric.
func BenchmarkFig12Breakdown(b *testing.B) {
	cfg := system.TableV()
	cpu := cpumodel.PaperCPU(32)
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := cfg.ProveTime(workloads.Jellyfish, 24, hw.DefaultSparsity)
		if err != nil {
			b.Fatal(err)
		}
		c := system.CPUProveTime(cpu, workloads.Jellyfish, 24)
		speedup = c.Total() / r.Total()
	}
	b.ReportMetric(speedup, "speedup-vs-cpu")
}

// BenchmarkFig13Workloads models the Jellyfish + masking gains per workload.
func BenchmarkFig13Workloads(b *testing.B) {
	masked := system.TableV()
	plain := system.TableV()
	plain.MaskZeroCheck = false
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.Fig13Set() {
			if w.LogJellyfish == 0 {
				continue
			}
			if _, err := plain.ProveTime(workloads.Vanilla, w.LogVanilla, w.Sparsity); err != nil {
				b.Fatal(err)
			}
			if _, err := masked.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig14Crossover sweeps the protocol-level gate degree.
func BenchmarkFig14Crossover(b *testing.B) {
	cfg := system.TableV()
	cfg.MaskZeroCheck = false
	for i := 0; i < b.N; i++ {
		for d := 2; d <= 30; d += 2 {
			if _, err := cfg.HighDegreeProtocol(d, 24); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable5Area evaluates the exemplar design's area/power model.
func BenchmarkTable5Area(b *testing.B) {
	cfg := system.TableV()
	var total float64
	for i := 0; i < b.N; i++ {
		a := cfg.Area()
		p := cfg.Power()
		total = a.Total() + p.Total()
	}
	b.ReportMetric(total, "area-plus-power")
}

// BenchmarkTable6Vanilla models the Vanilla-gate workload table.
func BenchmarkTable6Vanilla(b *testing.B) {
	cfg := system.TableV()
	cfg.MaskZeroCheck = false
	for i := 0; i < b.N; i++ {
		for _, w := range workloads.Registry() {
			if w.LogVanilla > 26 {
				continue
			}
			if _, err := cfg.ProveTime(workloads.Vanilla, w.LogVanilla, w.Sparsity); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable7Jellyfish models the Jellyfish workload table up to 2^30
// nominal gates and reports the geomean speedup metric.
func BenchmarkTable7Jellyfish(b *testing.B) {
	cfg := system.TableV()
	cpu := cpumodel.PaperCPU(32)
	var geoSpeedup float64
	for i := 0; i < b.N; i++ {
		logSum, n := 0.0, 0
		for _, w := range workloads.Registry() {
			if w.LogJellyfish == 0 {
				continue
			}
			r, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
			if err != nil {
				b.Fatal(err)
			}
			c := system.CPUProveTime(cpu, workloads.Jellyfish, w.LogJellyfish)
			logSum += math.Log(c.Total() / r.Total())
			n++
		}
		geoSpeedup = math.Exp(logSum / float64(n))
	}
	b.ReportMetric(geoSpeedup, "geomean-speedup")
}

// BenchmarkTable8IsoApplication models the iso-application comparison.
func BenchmarkTable8IsoApplication(b *testing.B) {
	cfg := system.TableV()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"ZCash", "Rescue-4096", "Zexe", "Rollup-10", "Rollup-25"} {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable9CrossAccelerator assembles the cross-accelerator row,
// including a real (small) proof for the proof-size column, through the
// session API.
func BenchmarkTable9CrossAccelerator(b *testing.B) {
	b.ReportAllocs()
	cfg := system.TableV()
	w, _ := workloads.ByName("Rollup-25")
	srs := SetupDeterministic(7, 3)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity); err != nil {
			b.Fatal(err)
		}
		cb := NewCircuitBuilder()
		x := cb.Secret(3)
		cb.AssertEqualConst(cb.Mul(x, x), 9)
		compiled, err := Compile(cb, WithLogGates(4))
		if err != nil {
			b.Fatal(err)
		}
		prover, err := NewProver(srs, compiled)
		if err != nil {
			b.Fatal(err)
		}
		proof, err := prover.Prove(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := Verify(srs, prover.VerifyingKey(), proof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAmortization quantifies what the session API buys a
// proving service: per-proof cost with compilation + preprocessing re-paid
// every time (one throwaway session per proof) vs amortized through one
// Prover.
func BenchmarkSessionAmortization(b *testing.B) {
	srs := SetupDeterministic(8, 11)
	build := func() *CircuitBuilder {
		cb := NewCircuitBuilder()
		x := cb.Secret(3)
		x3 := cb.Mul(cb.Mul(x, x), x)
		cb.AssertEqualConst(cb.Add(x3, x), 30)
		return cb
	}
	b.Run("preprocess-every-proof", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compiled, err := Compile(build(), WithLogGates(4))
			if err != nil {
				b.Fatal(err)
			}
			prover, err := NewProver(srs, compiled)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prover.Prove(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-amortized", func(b *testing.B) {
		compiled, err := Compile(build(), WithLogGates(4))
		if err != nil {
			b.Fatal(err)
		}
		prover, err := NewProver(srs, compiled)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prover.Prove(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session-batch-4workers", func(b *testing.B) {
		compiled, err := Compile(build(), WithLogGates(4))
		if err != nil {
			b.Fatal(err)
		}
		prover, err := NewProver(srs, compiled)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prover.BatchProve(context.Background(), 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Design-choice ablation benchmarks (DESIGN.md index) ---

// BenchmarkAblationSchedulerModes compares the Fig. 2 decompositions and
// term packing on the Jellyfish ZeroCheck.
func BenchmarkAblationSchedulerModes(b *testing.B) {
	cfg := core.Config{PEs: 16, EEs: 4, PLs: 5, BankSizeWords: 1 << 13, Prime: hw.FixedPrime}
	mem := hw.NewMemory(2048)
	w := core.NewWorkload(poly.Registered(22), 24)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"accumulate", core.Options{Mode: core.Accumulate}},
		{"tree", core.Options{Mode: core.BalancedTree}},
		{"packed", core.Options{Mode: core.Accumulate, PackTerms: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				r, err := core.SimulateOpts(cfg, w, mem, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Seconds*1e3, "model-ms")
			b.ReportMetric(last.Utilization*100, "util-pct")
		})
	}
}

// BenchmarkAblationPrimeKind compares fixed- vs arbitrary-prime areas.
func BenchmarkAblationPrimeKind(b *testing.B) {
	for _, prime := range []hw.PrimeKind{hw.FixedPrime, hw.ArbitraryPrime} {
		prime := prime
		b.Run(prime.String(), func(b *testing.B) {
			cfg := system.TableV()
			cfg.Prime = prime
			cfg.SumCheck.Prime = prime
			cfg.MSM.Prime = prime
			var area float64
			for i := 0; i < b.N; i++ {
				area = cfg.Area().Total()
			}
			b.ReportMetric(area, "area-mm2")
		})
	}
}

// BenchmarkAblationMasking quantifies the Masked-ZeroCheck gain.
func BenchmarkAblationMasking(b *testing.B) {
	for _, mask := range []bool{false, true} {
		mask := mask
		name := "off"
		if mask {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := system.TableV()
			cfg.MaskZeroCheck = mask
			var ms float64
			for i := 0; i < b.N; i++ {
				r, err := cfg.ProveTime(workloads.Jellyfish, 24, hw.DefaultSparsity)
				if err != nil {
					b.Fatal(err)
				}
				ms = r.Total() * 1e3
			}
			b.ReportMetric(ms, "model-ms")
		})
	}
}

// BenchmarkAblationSparseMSM runs one curve.MSM over a dense and over a
// 90%-sparse scalar vector (2^10 points): the gap is what the 0/1 split in
// every MSM saves on witness-like scalars, the software side of the paper's
// Sparse MSM datapath.
func BenchmarkAblationSparseMSM(b *testing.B) {
	rng := ff.NewRand(3)
	n := 1 << 10
	g := curve.GeneratorJac()
	jacs := make([]curve.G1Jac, n)
	for i := range jacs {
		k := rng.Element()
		jacs[i].ScalarMul(&g, &k)
	}
	points := curve.BatchFromJacobian(jacs)
	denseScalars := rng.Elements(n)
	sparseScalars := rng.SparseElements(n, 0.1)
	b.ResetTimer()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			curve.MSM(points, denseScalars)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			curve.MSM(points, sparseScalars)
		}
	})
}
