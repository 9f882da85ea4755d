// Command experiments regenerates every table and figure of the zkPHIRE
// paper's evaluation (Section VI). Each subcommand prints the same rows or
// series the paper reports; bench/README.md's replay-vs-cpumodel table sets
// the measured prover beside the modelled one.
//
// Usage:
//
//	experiments <name> [flags]
//
// where <name> is one of: table1, fig6, fig7, fig8, fig9, table2, fig10,
// fig11, fig12, fig13, fig14, table5, table6, table7, table8, table9,
// ablations, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	name string
	desc string
	run  func(args []string) error
}

var experiments = []experiment{
	{"table1", "Table I: the 25 polynomial constraints", runTable1},
	{"fig6", "Fig. 6: SumCheck speedups + utilization across bandwidths", runFig6},
	{"fig7", "Fig. 7: high-degree sweep at different bandwidths", runFig7},
	{"fig8", "Fig. 8: scheduler-induced latency jumps per EE count", runFig8},
	{"fig9", "Fig. 9: comparison with zkSpeed / zkSpeed+", runFig9},
	{"table2", "Table II: SumCheck runtimes CPU/GPU/zkPHIRE at N=24", runTable2},
	{"fig10", "Fig. 10 + Table IV: Pareto frontiers for 2^24 Jellyfish gates", runFig10},
	{"fig11", "Fig. 11: area & runtime breakdowns of Pareto designs", runFig11},
	{"fig12", "Fig. 12: CPU vs zkPHIRE runtime breakdown", runFig12},
	{"fig13", "Fig. 13: Jellyfish + masking speedups per workload", runFig13},
	{"fig14", "Fig. 14: protocol-level high-degree sweep (crossover)", runFig14},
	{"table5", "Table V: area and power of the 294 mm² design", runTable5},
	{"table6", "Table VI: Vanilla-gate runtimes vs zkSpeed+ and CPU", runTable6},
	{"table7", "Table VII: Jellyfish-gate runtimes and CPU speedups", runTable7},
	{"table8", "Table VIII: iso-application zkSpeed+ vs zkPHIRE", runTable8},
	{"table9", "Table IX: comparison with prior ZKP accelerators", runTable9},
	{"ablations", "design-choice ablations (scheduler modes, primes, masking)", runAblations},
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	name := args[0]
	if name == "all" {
		for _, e := range experiments {
			fmt.Printf("\n════════ %s — %s ════════\n", strings.ToUpper(e.name), e.desc)
			if err := e.run(args[1:]); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		return
	}
	for _, e := range experiments {
		if e.name == name {
			if err := e.run(args[1:]); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments <name> [flags]")
	fmt.Fprintln(os.Stderr, "experiments:")
	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		names = append(names, fmt.Sprintf("  %-10s %s", e.name, e.desc))
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(os.Stderr, n)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything")
}
