// Command zkphire is a demonstration CLI for the library: it proves and
// verifies built-in circuits end to end on the software stack through the
// session API, and estimates how the zkPHIRE accelerator and its baselines
// would run the same workloads.
//
// Usage:
//
//	zkphire prove -circuit cubic -gates jellyfish -batch 8 -workers 4
//	zkphire simulate -poly 22 -logn 24
//	zkphire estimate -gates jellyfish -logn 24 -backend all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"zkphire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "prove":
		err = cmdProve(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  zkphire prove    -circuit cubic|chain -gates vanilla|jellyfish [-logn N] [-batch N -workers W]
                                                  prove + verify a built-in circuit
  zkphire simulate -poly ID -logn N [-backend B]  model one Table I SumCheck
  zkphire estimate -gates K -logn N [-backend B]  model the full HyperPlonk prover
  (backends: zkphire, zkspeed, cpu, all)`)
}

// parseKind maps the -gates flag onto an Arithmetization.
func parseKind(s string) (zkphire.Arithmetization, error) {
	switch s {
	case "vanilla":
		return zkphire.Vanilla, nil
	case "jellyfish":
		return zkphire.Jellyfish, nil
	}
	return 0, fmt.Errorf("unknown gate system %q (vanilla or jellyfish)", s)
}

// backends resolves the -backend flag to estimator instances.
func backends(name string) ([]zkphire.Estimator, error) {
	switch name {
	case "zkphire":
		return []zkphire.Estimator{zkphire.DefaultAccelerator()}, nil
	case "zkspeed":
		return []zkphire.Estimator{zkphire.NewZKSpeedEstimator()}, nil
	case "cpu":
		return []zkphire.Estimator{zkphire.NewCPUEstimator(32)}, nil
	case "all":
		return zkphire.Estimators(), nil
	}
	return nil, fmt.Errorf("unknown backend %q (zkphire, zkspeed, cpu, all)", name)
}

// buildCircuit emits a built-in circuit on any Builder — one code path for
// both gate systems.
func buildCircuit(b zkphire.Builder, circuit string, logn int) error {
	switch circuit {
	case "cubic":
		// Prove knowledge of x with x³ + x + 5 = 35.
		x := b.Secret(3)
		x3 := b.Mul(b.Mul(x, x), x)
		b.AssertEqualConst(b.AddConst(b.Add(x3, x), 5), 35)
	case "chain":
		// A longer multiply-add chain sized to fill the capacity; with
		// -logn 0 (auto-size) a default length keeps the circuit non-empty.
		length := (1<<uint(logn))/2 - 2
		if logn <= 0 {
			length = 30
		}
		x := b.Secret(2)
		acc := x
		for i := 0; i < length; i++ {
			acc = b.Mul(acc, x)
			acc = b.Add(acc, x)
		}
	default:
		return fmt.Errorf("unknown circuit %q", circuit)
	}
	return nil
}

func cmdProve(args []string) error {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	circuit := fs.String("circuit", "cubic", "built-in circuit: cubic or chain")
	gatesFlag := fs.String("gates", "vanilla", "gate system: vanilla or jellyfish")
	logn := fs.Int("logn", 6, "log2 gate capacity (0 = auto-size)")
	batch := fs.Int("batch", 1, "number of proofs to generate from one preprocessing")
	workers := fs.Int("workers", 4, "concurrent proofs in a batch")
	fs.Parse(args)

	kind, err := parseKind(*gatesFlag)
	if err != nil {
		return err
	}
	b := zkphire.NewBuilder(kind)
	if err := buildCircuit(b, *circuit, *logn); err != nil {
		return err
	}

	var opts []zkphire.CompileOption
	if *logn > 0 {
		opts = append(opts, zkphire.WithLogGates(*logn))
	}
	compiled, err := zkphire.Compile(b, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("circuit %q: %d %s gates (capacity 2^%d)\n",
		*circuit, compiled.GateCount(), compiled.Arithmetization(), compiled.LogGates())

	srs := zkphire.SetupDeterministic(compiled.LogGates()+1, time.Now().UnixNano()%1000)
	ctx := context.Background()

	start := time.Now()
	prover, err := zkphire.NewProver(srs, compiled)
	if err != nil {
		return err
	}
	preprocessTime := time.Since(start)

	if *batch <= 1 {
		start = time.Now()
		proof, err := prover.Prove(ctx)
		if err != nil {
			return err
		}
		proveTime := time.Since(start)
		start = time.Now()
		if err := zkphire.Verify(srs, prover.VerifyingKey(), proof); err != nil {
			return err
		}
		fmt.Printf("preprocessed in %v, proved in %v, verified in %v, proof size %d bytes\n",
			preprocessTime.Round(time.Millisecond), proveTime.Round(time.Millisecond),
			time.Since(start).Round(time.Millisecond), proof.SizeBytes())
		return nil
	}

	start = time.Now()
	proofs, err := prover.BatchProve(ctx, *batch, *workers)
	if err != nil {
		return err
	}
	batchTime := time.Since(start)
	for _, p := range proofs {
		if err := zkphire.Verify(srs, prover.VerifyingKey(), p); err != nil {
			return err
		}
	}
	fmt.Printf("preprocessed once in %v; %d proofs on %d workers in %v (%v/proof), all verified\n",
		preprocessTime.Round(time.Millisecond), *batch, *workers,
		batchTime.Round(time.Millisecond), (batchTime / time.Duration(*batch)).Round(time.Millisecond))
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	polyID := fs.Int("poly", 22, "Table I constraint ID (0-24)")
	logn := fs.Int("logn", 24, "log2 gates")
	backend := fs.String("backend", "zkphire", "zkphire, zkspeed, cpu, or all")
	fs.Parse(args)

	ests, err := backends(*backend)
	if err != nil {
		return err
	}
	fmt.Printf("Table I poly %d over 2^%d gates:\n", *polyID, *logn)
	ok := 0
	for _, est := range ests {
		e, err := est.EstimateSumCheck(*polyID, *logn)
		if err != nil {
			if len(ests) == 1 {
				return err
			}
			fmt.Printf("  %-28s n/a (%v)\n", est.Name(), err)
			continue
		}
		ok++
		line := fmt.Sprintf("  %-28s %10.3f ms", est.Name(), e.Seconds*1e3)
		if e.Utilization > 0 {
			line += fmt.Sprintf("  util %.1f%%", e.Utilization*100)
		}
		if e.AreaMM2 > 0 {
			line += fmt.Sprintf("  unit %.2f mm²", e.AreaMM2)
		}
		fmt.Println(line)
	}
	if ok == 0 {
		return fmt.Errorf("no backend could price Table I poly %d at 2^%d gates", *polyID, *logn)
	}
	return nil
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	gatesFlag := fs.String("gates", "vanilla", "gate system: vanilla or jellyfish")
	logn := fs.Int("logn", 24, "log2 gates")
	backend := fs.String("backend", "all", "zkphire, zkspeed, cpu, or all")
	fs.Parse(args)

	kind, err := parseKind(*gatesFlag)
	if err != nil {
		return err
	}
	ests, err := backends(*backend)
	if err != nil {
		return err
	}
	fmt.Printf("full HyperPlonk prover, %s gates, 2^%d gates:\n", kind, *logn)
	ok := 0
	for _, est := range ests {
		e, err := est.EstimateProtocol(kind, *logn)
		if err != nil {
			if len(ests) == 1 {
				return err
			}
			fmt.Printf("  %-28s n/a (%v)\n", est.Name(), err)
			continue
		}
		ok++
		line := fmt.Sprintf("  %-28s %12.3f ms  %6.1f W", est.Name(), e.Seconds*1e3, e.PowerW)
		if e.AreaMM2 > 0 {
			line += fmt.Sprintf("  %7.2f mm²", e.AreaMM2)
		}
		fmt.Println(line)
	}
	if ok == 0 {
		return fmt.Errorf("no backend could price a %s prover at 2^%d gates", kind, *logn)
	}
	return nil
}
