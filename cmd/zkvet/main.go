// Command zkvet runs the repository's invariant analyzers — the
// internal/analysis suite — over module packages and reports findings
// in vet style (file:line:col: [analyzer] message). It exits non-zero
// if any finding survives //zkvet:ignore suppression, so `make lint`
// fails on an invariant break (as does `go test ./internal/analysis`,
// which runs the same suite over the module).
//
// Usage:
//
//	zkvet [-list] [packages]
//
// Packages are import paths or ./-relative directories; the ./...
// pattern (the default) expands to every buildable package in the
// module, testdata excluded. -list prints the suite with one-line
// descriptions and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"zkphire/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: zkvet [-list] [packages]\n\nzkvet checks the prover stack's invariants (DESIGN.md §6).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	paths, err := expand(loader, flag.Args())
	if err != nil {
		fatal(err)
	}

	findings := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		diags, err := analysis.Run(pkg, suite)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			rel, rerr := filepath.Rel(root, d.Pos.Filename)
			if rerr == nil {
				d.Pos.Filename = rel
			}
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "zkvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// expand turns command-line package arguments into module import
// paths. No arguments (or "./...") means the whole module.
func expand(l *analysis.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return l.ModulePackages()
	}
	var out []string
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := l.ModulePackages()
			if err != nil {
				return nil, err
			}
			out = append(out, all...)
		case strings.HasPrefix(arg, l.ModulePath):
			out = append(out, arg)
		default:
			rel := strings.TrimPrefix(filepath.ToSlash(filepath.Clean(arg)), "./")
			if rel == "." {
				out = append(out, l.ModulePath)
			} else {
				out = append(out, l.ModulePath+"/"+rel)
			}
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zkvet:", err)
	os.Exit(1)
}
