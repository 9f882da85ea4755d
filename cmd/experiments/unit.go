package main

import (
	"flag"
	"fmt"

	"zkphire/internal/core"
	"zkphire/internal/hw"
	"zkphire/internal/hw/cpumodel"
	"zkphire/internal/hw/dse"
	"zkphire/internal/hw/zkspeed"
	"zkphire/internal/poly"
)

// fig6AreaCap is the 4-thread CPU's core area in 7nm mm² (Section VI-A1),
// used as the standalone unit's area constraint.
const fig6AreaCap = 37.0

func trainingSet() ([]*poly.Composite, []string) {
	var polys []*poly.Composite
	var names []string
	for id := 0; id <= 19; id++ {
		polys = append(polys, poly.Registered(id))
		names = append(names, fmt.Sprintf("Poly %d", id))
	}
	return polys, names
}

func runTable1(args []string) error {
	fmt.Printf("%-4s %-22s %-7s %-6s %-8s %-10s\n", "ID", "Name", "Degree", "Terms", "MaxMLEs", "Constituents")
	for id := 0; id < poly.NumRegistered; id++ {
		c := poly.Registered(id)
		fmt.Printf("%-4d %-22s %-7d %-6d %-8d %d\n",
			id, c.Name, c.Degree(), c.NumTerms(), c.MaxDistinctVars(), c.NumVars())
	}
	return nil
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	numVars := fs.Int("logn", 20, "log2 problem size")
	lambda := fs.Float64("lambda", 0.8, "objective tradeoff")
	fs.Parse(args)

	polys, names := trainingSet()
	cpu := cpumodel.PaperCPU(4)
	cpuSec := make([]float64, len(polys))
	for i, p := range polys {
		cpuSec[i] = cpu.SumcheckSeconds(p, *numVars)
	}

	fmt.Printf("SumCheck-unit DSE: 2^%d gates, area cap %.0f mm² (7nm), λ=%.1f, CPU = 4 threads\n\n",
		*numVars, fig6AreaCap, *lambda)
	fmt.Printf("%-10s %-22s %-9s %-10s %-14s\n", "BW (GB/s)", "Chosen design", "Area mm²", "Mean util", "Geomean speedup")
	type row struct {
		bw   float64
		best dse.UnitEval
	}
	var rows []row
	for _, bw := range dse.TableIII.Bandwidths {
		best, _ := dse.UnitSearch(polys, *numVars, bw, fig6AreaCap, *lambda, cpuSec)
		rows = append(rows, row{bw, best})
		fmt.Printf("%-10.0f %-22s %-9.1f %-10.3f %.0fx\n",
			bw, best.Cfg.String(), best.AreaMM2, best.MeanUtil, best.GeomeanSpeedup)
	}

	fmt.Println("\nPer-polynomial speedups over 4-thread CPU (columns = bandwidth tiers):")
	fmt.Printf("%-10s", "")
	for _, r := range rows {
		fmt.Printf("%9.0f", r.bw)
	}
	fmt.Println()
	for i, n := range names {
		fmt.Printf("%-10s", n)
		for _, r := range rows {
			fmt.Printf("%8.0fx", r.best.SpeedupPerPoly[i])
		}
		fmt.Println()
	}
	fmt.Println("\nPaper reference: geomeans 61x–2209x across 64–4096 GB/s; utilization ≈ 0.39–0.48.")
	return nil
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	numVars := fs.Int("logn", 20, "log2 problem size")
	fs.Parse(args)

	// A high-performance design under the same area constraint (λ small).
	anchor := poly.HighDegree(16)
	cpu := cpumodel.PaperCPU(4)
	best, _ := dse.UnitSearch([]*poly.Composite{anchor}, *numVars, 1024, fig6AreaCap, 0.1,
		[]float64{cpu.SumcheckSeconds(anchor, *numVars)})
	cfg := best.Cfg
	fmt.Printf("Fixed design %s, 2^%d gates\n\n", cfg.String(), *numVars)

	fmt.Printf("%-7s", "deg")
	for _, bw := range dse.TableIII.Bandwidths {
		fmt.Printf("%14.0f", bw)
	}
	fmt.Printf("%14s\n", "CPU (ms)")
	for d := 2; d <= 30; d++ {
		p := poly.HighDegree(d)
		fmt.Printf("%-7d", d)
		for _, bw := range dse.TableIII.Bandwidths {
			res, err := core.Simulate(cfg, core.NewWorkload(p, *numVars), hw.NewMemory(bw))
			if err != nil {
				return err
			}
			cpuS := cpu.SumcheckSeconds(p, *numVars)
			fmt.Printf("%7.2fms%5.0fx", res.Seconds*1e3, cpuS/res.Seconds)
		}
		fmt.Printf("%12.0fms\n", cpu.SumcheckSeconds(p, *numVars)*1e3)
	}
	fmt.Println("\nPaper reference: low degrees need HBM-scale bandwidth for ~1000x;")
	fmt.Println("high degrees reach similar speedups at DDR5-level (256 GB/s) bandwidth.")
	return nil
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	numVars := fs.Int("logn", 20, "log2 problem size")
	pls := fs.Int("pl", 5, "product lanes")
	bw := fs.Float64("bw", 2048, "bandwidth GB/s")
	fs.Parse(args)

	fmt.Printf("Latency (ms) vs polynomial degree at fixed BW=%.0f GB/s, PL=%d, 1 PE, 2^%d gates\n\n",
		*bw, *pls, *numVars)
	fmt.Printf("%-7s", "deg")
	for ee := 2; ee <= 7; ee++ {
		fmt.Printf("%10s", fmt.Sprintf("%d EEs", ee))
	}
	fmt.Println()
	mem := hw.NewMemory(*bw)
	prevNodes := map[int]int{}
	for d := 2; d <= 30; d++ {
		p := poly.HighDegree(d)
		fmt.Printf("%-7d", d)
		for ee := 2; ee <= 7; ee++ {
			cfg := core.Config{PEs: 1, EEs: ee, PLs: *pls, BankSizeWords: 1 << 13, Prime: hw.FixedPrime}
			res, err := core.Simulate(cfg, core.NewWorkload(p, *numVars), mem)
			if err != nil {
				return err
			}
			mark := " "
			nodes := res.Program.NumSteps()
			if prev, ok := prevNodes[ee]; ok && nodes > prev {
				mark = "*" // schedule-node jump (the Fig. 8 cliff)
			}
			prevNodes[ee] = nodes
			fmt.Printf("%8.2f%s", res.Seconds*1e3, mark)
		}
		fmt.Println()
	}
	fmt.Println("\n(*) marks degrees where the scheduler adds a node — the discrete jumps of Fig. 8.")
	return nil
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	logGates := fs.Int("logn", 24, "log2 Vanilla gates")
	fs.Parse(args)

	// Iso-zkSpeed-area SumCheck design at 2 TB/s (Section VI-A3: 35.24 mm²
	// vs zkSpeed's 30.8 mm² SumCheck+Update area).
	polys, _ := trainingSet()
	cpu := cpumodel.PaperCPU(4)
	cpuSec := make([]float64, len(polys))
	for i, p := range polys {
		cpuSec[i] = cpu.SumcheckSeconds(p, *logGates)
	}
	best, _ := dse.UnitSearch(polys, *logGates, zkspeed.BandwidthGBps, 35.24, 0.8, cpuSec)
	cfg := best.Cfg
	mem := hw.NewMemory(zkspeed.BandwidthGBps)
	fmt.Printf("zkPHIRE SumCheck design %s (%.1f mm²), 2 TB/s, 2^%d Vanilla gates\n\n", cfg.String(), best.AreaMM2, *logGates)

	run := func(p *poly.Composite, lg int) float64 {
		res, err := core.Simulate(cfg, core.NewWorkload(p, lg), mem)
		if err != nil {
			panic(err)
		}
		return res.Seconds * 1e3
	}

	vanZC, vanPC, oc := poly.Registered(20), poly.Registered(21), poly.Registered(24)
	jfZC, jfPC := poly.Registered(22), poly.Registered(23)

	vzc, vpc, voc := run(vanZC, *logGates), run(vanPC, *logGates), run(oc, *logGates)
	vChecks := zkspeed.SumcheckChecks{ZeroCheckMS: vzc, PermCheckMS: vpc, OpenCheckMS: voc}
	zsp := zkspeed.PlusChecksFrom(vChecks)
	zs := zkspeed.BaseChecksFrom(vChecks)
	fmt.Printf("%-26s %10s %10s %10s %10s\n", "Design", "ZeroCheck", "PermCheck", "OpenCheck", "Total")
	fmt.Printf("%-26s %8.1fms %8.1fms %8.1fms %8.1fms\n", "zkSpeed (ratio-derived)", zs.ZeroCheckMS, zs.PermCheckMS, zs.OpenCheckMS, zs.Total())
	fmt.Printf("%-26s %8.1fms %8.1fms %8.1fms %8.1fms\n", "zkSpeed+ (ratio-derived)", zsp.ZeroCheckMS, zsp.PermCheckMS, zsp.OpenCheckMS, zsp.Total())

	fmt.Printf("%-26s %8.1fms %8.1fms %8.1fms %8.1fms  (%.2fx vs zkSpeed+)\n",
		"zkPHIRE (Vanilla)", vzc, vpc, voc, vzc+vpc+voc, zsp.Total()/(vzc+vpc+voc))
	for _, red := range []int{2, 4, 8} {
		lg := *logGates - log2int(red)
		jzc, jpc, joc := run(jfZC, lg), run(jfPC, lg), run(oc, lg)
		total := jzc + jpc + joc
		fmt.Printf("%-26s %8.1fms %8.1fms %8.1fms %8.1fms  (%.2fx vs zkSpeed+)\n",
			fmt.Sprintf("zkPHIRE (Jellyfish %dx)", red), jzc, jpc, joc, total, zsp.Total()/total)
	}
	fmt.Println("\nPaper reference: zkPHIRE Vanilla ≈ 30% slower than zkSpeed+ at iso-area;")
	fmt.Println("Jellyfish 4x outperforms Vanilla on both; Jellyfish 8x reaches 2.33x over zkSpeed+.")
	return nil
}

func log2int(v int) int {
	n := 0
	for 1<<uint(n) < v {
		n++
	}
	return n
}

func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	logGates := fs.Int("logn", 24, "log2 problem size N")
	fs.Parse(args)

	// Same design point as Fig. 9, at 1 TB/s to match the A100.
	polys, _ := trainingSet()
	cpu4 := cpumodel.PaperCPU(4)
	cpuSec := make([]float64, len(polys))
	for i, p := range polys {
		cpuSec[i] = cpu4.SumcheckSeconds(p, *logGates)
	}
	best, _ := dse.UnitSearch(polys, *logGates, 1024, 35.24, 0.8, cpuSec)
	cfg := best.Cfg
	mem := hw.NewMemory(1024)

	type row struct {
		name       string
		comp       *poly.Composite
		count      int
		lg         int
		gpuKey     string
		paperCPUms float64
	}
	rows := []row{
		{"Spartan1 (A·B−C)·fτ", poly.Registered(1), 1, *logGates + 1, "Spartan1", 6770},
		{"Spartan2 (SumABC)·Z", poly.Registered(2), 1, *logGates + 1, "Spartan2", 5237},
		{"A·B·C ×12 (2^N)", poly.ProductGate(3), 12, *logGates, "ABC12", 60993},
		{"A·B·C ×6 (2^N−1)", poly.ProductGate(3), 6, *logGates - 1, "ABC6", 15248},
		{"A·B·C ×4 (2^N+1)", poly.ProductGate(3), 4, *logGates + 1, "ABC4", 40662},
		{"HP Poly 20 (no fr)", poly.VanillaGate(), 1, *logGates, "HPPoly20", 13354},
		{"HP Poly 21", poly.Registered(21), 1, *logGates, "", 21625},
		{"HP Poly 22", poly.Registered(22), 1, *logGates, "", 74226},
		{"HP Poly 23", poly.Registered(23), 1, *logGates, "", 32774},
		{"HP Poly 24", poly.Registered(24), 1, *logGates, "", 17591},
	}
	fmt.Printf("Design %s at 1 TB/s; CPU model = 4 threads; GPU = published A100/ICICLE\n\n", cfg.String())
	fmt.Printf("%-22s %5s %14s %14s %12s %12s %10s\n", "Polynomial", "Count", "CPU model", "CPU paper", "GPU paper", "zkPHIRE", "vs CPU")
	for _, r := range rows {
		var ws []core.Workload
		for i := 0; i < r.count; i++ {
			ws = append(ws, core.NewWorkload(r.comp, r.lg))
		}
		res, err := core.SimulateMany(cfg, ws, mem)
		if err != nil {
			return err
		}
		cpuMS := cpu4.SumcheckSeconds(r.comp, r.lg) * float64(r.count) * 1e3
		gpu := "—"
		if r.gpuKey != "" {
			gpu = fmt.Sprintf("%.0f ms", cpumodel.GPUTable2MS[r.gpuKey])
		}
		fmt.Printf("%-22s %5d %11.0f ms %11.0f ms %12s %9.1f ms %8.0fx\n",
			r.name, r.count, cpuMS, r.paperCPUms, gpu, res.Seconds*1e3, cpuMS/(res.Seconds*1e3))
	}
	fmt.Println("\nPaper reference: zkPHIRE 600–1070x over CPU, ~70x over the A100.")
	return nil
}
