package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"sort"

	"zkphire"
	"zkphire/internal/hw"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/hw/dse"
	"zkphire/internal/hw/system"
	"zkphire/internal/hw/zkspeed"
	"zkphire/internal/workloads"
)

func runFig10(args []string) error {
	fs := flag.NewFlagSet("fig10", flag.ExitOnError)
	logGates := fs.Int("logn", 24, "log2 Jellyfish gates")
	full := fs.Bool("full", false, "run the full Table III grid (slow)")
	fs.Parse(args)

	pts := dse.SweepSystem(workloads.Jellyfish, *logGates, dse.SweepOptions{Coarse: !*full})
	fmt.Printf("Evaluated %d designs for 2^%d Jellyfish gates\n\n", len(pts), *logGates)

	// Per-bandwidth best (the A–D labels of Fig. 10).
	fmt.Printf("%-10s %-14s %-10s\n", "BW (GB/s)", "Best runtime", "Area")
	bestPerBW := map[float64]dse.Point{}
	for _, p := range pts {
		bw := p.Cfg.BandwidthGBps
		if cur, ok := bestPerBW[bw]; !ok || p.RuntimeMS < cur.RuntimeMS {
			bestPerBW[bw] = p
		}
	}
	bws := make([]float64, 0, len(bestPerBW))
	for bw := range bestPerBW {
		bws = append(bws, bw)
	}
	sort.Float64s(bws)
	for _, bw := range bws {
		p := bestPerBW[bw]
		fmt.Printf("%-10.0f %11.1f ms %7.1f mm²\n", bw, p.RuntimeMS, p.AreaMM2)
	}

	front := dse.Pareto(pts)
	cpu := system.CPUProveTime(cpumodel.PaperCPU(32), workloads.Jellyfish, *logGates)
	fmt.Printf("\nGlobal Pareto frontier (%d points) — Table IV analogue (CPU = %.1f s):\n", len(front), cpu.Total())
	fmt.Printf("%-8s %-14s %-12s %-10s %-12s\n", "Design", "Runtime", "Area", "BW", "CPU speedup")
	labels := "ABCDEFGHIJKLMNOP"
	step := 1
	if len(front) > 16 {
		step = len(front) / 16
	}
	li := 0
	for i := 0; i < len(front) && li < len(labels); i += step {
		p := front[i]
		fmt.Printf("%-8c %11.1f ms %8.1f mm² %7.0f %10.0fx\n",
			labels[li], p.RuntimeMS, p.AreaMM2, p.Cfg.BandwidthGBps, cpu.Total()*1e3/p.RuntimeMS)
		li++
	}
	fmt.Println("\nPaper reference (Table IV): A 71.4ms/599mm²/4TB → 2560x ... G 1716.8ms/25mm²/128GB → 107x.")
	return nil
}

// fig11Designs picks four spread Pareto designs (the paper's A–D).
func fig11Designs(logGates int) []dse.Point {
	pts := dse.SweepSystem(workloads.Jellyfish, logGates, dse.SweepOptions{
		Coarse:     true,
		Bandwidths: []float64{512, 1024, 2048, 4096},
	})
	front := dse.Pareto(pts)
	if len(front) <= 4 {
		return front
	}
	out := []dse.Point{front[0]}
	for _, f := range []float64{0.33, 0.66, 1.0} {
		out = append(out, front[int(f*float64(len(front)-1))])
	}
	return out
}

func runFig11(args []string) error {
	fs := flag.NewFlagSet("fig11", flag.ExitOnError)
	logGates := fs.Int("logn", 24, "log2 Jellyfish gates")
	fs.Parse(args)

	designs := fig11Designs(*logGates)
	labels := []string{"A", "B", "C", "D"}
	fmt.Println("Area breakdown (%, 7nm):")
	fmt.Printf("%-8s %9s %9s %9s %9s %9s %9s %9s\n", "Design", "SumCheck", "Forest", "MSM", "SRAM", "PHY", "NoC", "Total mm²")
	for i, d := range designs {
		a := d.Cfg.Area()
		tot := a.Total()
		fmt.Printf("%-8s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %9.1f\n",
			labels[i], 100*a.SumCheck/tot, 100*a.Forest/tot, 100*a.MSM/tot,
			100*a.SRAM/tot, 100*a.HBMPHY/tot, 100*a.Interconnect/tot, tot)
	}

	fmt.Println("\nRuntime breakdown (%):")
	fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s %10s\n",
		"Design", "WitMSM", "WirMSM", "OpenMSM", "ZeroChk", "PermChk", "OpenChk", "Other")
	for i, d := range designs {
		r, err := d.Cfg.ProveTime(workloads.Jellyfish, *logGates, hw.DefaultSparsity)
		if err != nil {
			return err
		}
		tot := r.Total() + r.MaskSavings // unmasked shares, as in the paper
		other := r.PermGen + r.BatchEval
		fmt.Printf("%-8s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
			labels[i], 100*r.WitnessMSM/tot, 100*r.WiringMSM/tot, 100*r.OpenMSM/tot,
			100*r.ZeroCheck/tot, 100*r.PermCheck/tot, 100*r.OpenCheck/tot, 100*other/tot)
	}
	fmt.Println("\nPaper reference: MSM dominates area everywhere; SumCheck share of runtime")
	fmt.Println("shrinks as bandwidth grows (C→D shifts area from MSM to SumCheck/Forest).")
	return nil
}

func runFig12(args []string) error {
	fs := flag.NewFlagSet("fig12", flag.ExitOnError)
	logGates := fs.Int("logn", 24, "log2 Jellyfish gates")
	fs.Parse(args)

	cpu := system.CPUProveTime(cpumodel.PaperCPU(32), workloads.Jellyfish, *logGates)
	cfg := system.TableV()
	hwr, err := cfg.ProveTime(workloads.Jellyfish, *logGates, hw.DefaultSparsity)
	if err != nil {
		return err
	}

	pct := func(v, tot float64) string { return fmt.Sprintf("%5.1f%%", 100*v/tot) }
	cpuTot := cpu.Total()
	fmt.Printf("a) CPU (32 threads), total %.1f s:\n", cpuTot)
	fmt.Printf("   Sparse MSMs %s  Gate Identity %s  Gen PermCheck MLEs %s  PermCheck Dense MSMs %s\n",
		pct(cpu.WitnessMSM, cpuTot), pct(cpu.ZeroCheck, cpuTot), pct(cpu.PermGen, cpuTot), pct(cpu.WiringMSM, cpuTot))
	fmt.Printf("   PermCheck %s  Batch Evals %s  OpenCheck %s  PolyOpen Dense MSMs %s\n",
		pct(cpu.PermCheck, cpuTot), pct(cpu.BatchEval, cpuTot), pct(cpu.OpenCheck, cpuTot), pct(cpu.OpenMSM, cpuTot))

	tot := hwr.Total() + hwr.MaskSavings // pre-masking proportions, as in the paper
	fmt.Printf("\nb) zkPHIRE (Table V design, 2 TB/s), total %.1f ms (%.1f ms after masking):\n", tot*1e3, hwr.Total()*1e3)
	fmt.Printf("   Witness MSMs %s  Gate Identity %s  Wire Identity %s  Batch Evals & Poly Open %s\n",
		pct(hwr.WitnessMSM, tot), pct(hwr.ZeroCheck, tot),
		pct(hwr.PermGen+hwr.WiringMSM+hwr.PermCheck, tot),
		pct(hwr.BatchEval+hwr.OpenCheck+hwr.OpenMSM, tot))
	fmt.Printf("\nEnd-to-end speedup: %.0fx (paper: ~1400x at this design point)\n", cpuTot/hwr.Total())
	fmt.Println("Paper reference (Fig. 12b): Witness 7.8%, Gate Identity 21.4%, Wire Identity 37.9%, Batch+Open 33.0%.")
	return nil
}

func runFig13(args []string) error {
	cfgMasked := system.TableV()
	cfgPlain := system.TableV()
	cfgPlain.MaskZeroCheck = false

	fmt.Printf("%-14s %10s %12s %12s %10s %10s\n", "Workload", "Vanilla", "Jellyfish", "JF+MskZC", "JF gain", "Msk gain")
	for _, w := range workloads.Fig13Set() {
		if w.LogJellyfish == 0 {
			continue
		}
		van, err := cfgPlain.ProveTime(workloads.Vanilla, w.LogVanilla, w.Sparsity)
		if err != nil {
			return err
		}
		jf, err := cfgPlain.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
		if err != nil {
			return err
		}
		jfm, err := cfgMasked.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %8.2fms %10.2fms %10.2fms %9.2fx %9.2fx\n",
			w.Name, van.Total()*1e3, jf.Total()*1e3, jfm.Total()*1e3,
			van.Total()/jf.Total(), van.Total()/jfm.Total())
	}
	fmt.Println("\nPaper reference: Jellyfish alone 1.5–25x (large workloads approach the table-size")
	fmt.Println("reduction); masking adds ~25–27% on top for most workloads.")
	return nil
}

func runFig14(args []string) error {
	fs := flag.NewFlagSet("fig14", flag.ExitOnError)
	logGates := fs.Int("logn", 24, "log2 gates")
	fs.Parse(args)

	cfg := system.TableV()
	cfg.MaskZeroCheck = false // Fig. 14 reports the unmasked schedule
	fmt.Printf("%-6s %14s %12s %12s %12s\n", "deg", "Total (ms)", "SumCheck %", "MSM %", "Rest %")
	crossed := false
	for d := 2; d <= 30; d++ {
		r, err := cfg.HighDegreeProtocol(d, *logGates)
		if err != nil {
			return err
		}
		tot := r.Total()
		sum := r.ZeroCheck + r.PermCheck + r.OpenCheck
		msm := r.WitnessMSM + r.WiringMSM + r.OpenMSM
		rest := tot - sum - msm
		mark := ""
		if !crossed && sum > msm {
			mark = "  <-- crossover (paper: d=18, 45%)"
			crossed = true
		}
		fmt.Printf("%-6d %12.1f %11.1f%% %11.1f%% %11.1f%%%s\n",
			d, tot*1e3, 100*sum/tot, 100*msm/tot, 100*rest/tot, mark)
	}
	return nil
}

func runTable5(args []string) error {
	cfg := system.TableV()
	a := cfg.Area()
	p := cfg.Power()
	fmt.Printf("%-28s %12s %12s %14s\n", "Module", "Area (mm²)", "Paper", "Power (W)")
	row := func(name string, got, paper float64) {
		fmt.Printf("%-28s %12.2f %12.2f\n", name, got, paper)
	}
	row("MSM (32 PEs)", a.MSM, 105.69)
	row("Multifunc Forest (80 trees)", a.Forest, 48.18)
	row("SumCheck (16 PEs)", a.SumCheck, 16.65)
	row("Other (PermQ/Combine/SHA3)", a.Other, 10.64)
	row("Total compute", a.TotalCompute(), 181.15)
	row("SRAM", a.SRAM, 27.55)
	row("Interconnect", a.Interconnect, 26.42)
	row(fmt.Sprintf("HBM3 (%d PHYs)", a.PHYCount), a.HBMPHY, 59.20)
	row("Total", a.Total(), 294.32)
	fmt.Printf("\nPower: compute %.1f W, SRAM %.1f W, NoC %.1f W, HBM %.1f W — total %.1f W (paper 202.28 W)\n",
		p.Compute, p.SRAM, p.NoC, p.HBM, p.Total())
	return nil
}

func runTable6(args []string) error {
	cfg := system.TableV()
	cfg.MaskZeroCheck = false // Table VI comparison excludes masking
	cpu := cpumodel.PaperCPU(32)

	fmt.Printf("%-14s %6s %14s %14s %14s %14s %10s\n",
		"Workload", "Gates", "CPU paper", "CPU model", "zkSpeed+", "zkPHIRE", "vs CPU")
	for _, w := range workloads.Registry() {
		if w.Name == "Rollup-1600" || w.Name == "zkEVM" {
			continue
		}
		r, err := cfg.ProveTime(workloads.Vanilla, w.LogVanilla, w.Sparsity)
		if err != nil {
			return err
		}
		cpuR := system.CPUProveTime(cpu, workloads.Vanilla, w.LogVanilla)
		zs := "—"
		if ms, err := zkspeed.PlusRuntimeMS(w.Name); err == nil {
			zs = fmt.Sprintf("%.2f ms", ms)
		}
		cpuPaper := "—"
		if w.CPUVanillaMS > 0 {
			cpuPaper = fmt.Sprintf("%.0f ms", w.CPUVanillaMS)
		}
		fmt.Printf("%-14s 2^%-4d %14s %11.0f ms %14s %11.2f ms %8.0fx\n",
			w.Name, w.LogVanilla, cpuPaper, cpuR.Total()*1e3, zs, r.Total()*1e3,
			cpuR.Total()*1e3/(r.Total()*1e3))
	}
	fmt.Println("\nPaper reference: zkPHIRE ≈10% slower than zkSpeed+ on Vanilla gates while")
	fmt.Println("programmable, and scales past zkSpeed's 2^24-gate limit (Rollup-50/100).")
	return nil
}

func runTable7(args []string) error {
	cfg := system.TableV()
	cpu := cpumodel.PaperCPU(32)

	fmt.Printf("%-14s %9s %10s %14s %14s %14s %10s\n",
		"Workload", "Vanilla", "Jellyfish", "CPU paper", "CPU model", "zkPHIRE", "vs CPU")
	for _, w := range workloads.Registry() {
		if w.LogJellyfish == 0 {
			continue
		}
		r, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
		if err != nil {
			return err
		}
		cpuR := system.CPUProveTime(cpu, workloads.Jellyfish, w.LogJellyfish)
		cpuPaper := "—"
		if w.CPUJellyfishMS > 0 {
			cpuPaper = fmt.Sprintf("%.0f ms", w.CPUJellyfishMS)
		}
		fmt.Printf("%-14s 2^%-7d 2^%-8d %14s %11.0f ms %11.3f ms %8.0fx\n",
			w.Name, w.LogVanilla, w.LogJellyfish, cpuPaper, cpuR.Total()*1e3,
			r.Total()*1e3, cpuR.Total()/r.Total())
	}
	geo := geomeanSpeedup(cfg, cpu)
	fmt.Printf("\nGeomean speedup over CPU model across Jellyfish workloads: %.0fx (paper: 1486x)\n", geo)
	return nil
}

func geomeanSpeedup(cfg system.Config, cpu cpumodel.Model) float64 {
	logSum, n := 0.0, 0
	for _, w := range workloads.Registry() {
		if w.LogJellyfish == 0 {
			continue
		}
		r, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
		if err != nil {
			continue
		}
		cpuR := system.CPUProveTime(cpu, workloads.Jellyfish, w.LogJellyfish)
		logSum += math.Log(cpuR.Total() / r.Total())
		n++
	}
	return math.Exp(logSum / float64(n))
}

func runTable8(args []string) error {
	cfg := system.TableV()
	fmt.Printf("%-18s %9s %10s %14s %14s %10s\n",
		"Workload", "Vanilla", "Jellyfish", "zkSpeed+ (V)", "zkPHIRE (JF)", "Speedup")
	logSum, n := 0.0, 0
	for _, name := range []string{"ZCash", "Rescue-4096", "Zexe", "Rollup-10", "Rollup-25"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		zs, err := zkspeed.PlusRuntimeMS(name)
		if err != nil {
			return err
		}
		r, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
		if err != nil {
			return err
		}
		sp := zs / (r.Total() * 1e3)
		logSum += math.Log(sp)
		n++
		fmt.Printf("%-18s 2^%-7d 2^%-8d %11.3f ms %11.3f ms %8.2fx\n",
			name, w.LogVanilla, w.LogJellyfish, zs, r.Total()*1e3, sp)
	}
	fmt.Printf("\nGeomean iso-application speedup over zkSpeed+: %.2fx (paper: 11.87x)\n",
		math.Exp(logSum/float64(n)))
	return nil
}

func runTable9(args []string) error {
	cfg := system.TableV()
	w, _ := workloads.ByName("Rollup-25")
	r, err := cfg.ProveTime(workloads.Jellyfish, w.LogJellyfish, w.Sparsity)
	if err != nil {
		return err
	}
	cpu := system.CPUProveTime(cpumodel.PaperCPU(32), workloads.Jellyfish, w.LogJellyfish)
	a := cfg.Area()
	p := cfg.Power()
	proofKB, err := measuredProofKB()
	if err != nil {
		return err
	}

	fmt.Printf("%-14s %-16s %-10s %-12s %-12s %-10s %-10s %-10s %-8s\n",
		"Accelerator", "Protocol", "Gates", "Proof", "SW Prover", "HW Prover", "Area mm²", "ModMuls", "Power W")
	for _, row := range zkspeed.TableIX() {
		fmt.Printf("%-14s %-16s %-10s %-12s %9.1f s %7.1f ms %10.1f %10d %8.0f\n",
			row.Name, row.Protocol, row.Gates, row.ProofSize,
			row.SWProverS, row.HWProverMS, row.AreaMM2, row.ModMuls, row.PowerW)
	}
	modmuls := cfg.SumCheck.PEs*cfg.SumCheck.EEs + cfg.Forest().Trees*cfg.Forest().MulsPerTree +
		cfg.MSM.PEs*12 + 12 + cfg.Combine.Buffers
	fmt.Printf("%-14s %-16s %-10s %-12s %9.1f s %7.1f ms %10.1f %10d %8.0f\n",
		"zkPHIRE", "HyperPlonk", "2^19 (JF)", fmt.Sprintf("%.2f KB", proofKB),
		cpu.Total(), r.Total()*1e3, a.Total(), modmuls, p.Total())
	fmt.Println("\nPaper reference row: zkPHIRE 3.874 ms, 294.32 mm², 2267 modmuls, 202 W, 4.41 KB proof.")
	return nil
}

// measuredProofKB produces a real HyperPlonk proof at two small sizes and
// linearly extrapolates the per-round growth to the Rollup-25 Jellyfish
// size (µ = 19) — proof size depends only on µ and the gate degrees. The
// proofs run through the public session API (Compile → NewProver → Prove).
func measuredProofKB() (float64, error) {
	sizeAt := func(mu int) (int, error) {
		srs := zkphire.SetupDeterministic(mu+1, 42)
		b := zkphire.NewJellyfishBuilder()
		x := b.Secret(3)
		y := b.Power5(x)
		z := b.Mul(y, x)
		b.AssertEqualConst(z, 729)
		compiled, err := zkphire.Compile(b, zkphire.WithLogGates(mu))
		if err != nil {
			return 0, err
		}
		prover, err := zkphire.NewProver(srs, compiled)
		if err != nil {
			return 0, err
		}
		proof, err := prover.Prove(context.Background())
		if err != nil {
			return 0, err
		}
		data, err := proof.MarshalBinary()
		return len(data), err
	}
	s6, err := sizeAt(6)
	if err != nil {
		return 0, err
	}
	s8, err := sizeAt(8)
	if err != nil {
		return 0, err
	}
	perRound := float64(s8-s6) / 2
	s19 := float64(s6) + perRound*13
	return s19 / 1024, nil
}
