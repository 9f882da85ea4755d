// Package analysis is zkvet: a static-analysis suite that mechanically
// checks the invariants the prover stack's performance work rests on.
// PRs 2–5 made proofs byte-identical across worker budgets, routed all
// scratch memory through paired arena Get/Put calls, and promised
// never-panic deserialization — and each of those contracts was enforced
// only by convention and a handful of tests. This package encodes them as
// analyzers so every CI run re-proves them over the whole tree
// (DESIGN.md §6).
//
// The suite mirrors the golang.org/x/tools/go/analysis API shapes
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone (go/parser, go/types, go/importer), so the module keeps its
// zero-dependency property. cmd/zkvet is the multichecker driver and
// `make lint` runs it over ./...; the package's own TestModuleClean runs
// the same suite over the module, so `go test ./...` fails on a finding.
//
// Findings can be suppressed at the flagged line (or the line directly
// above it) with
//
//	//zkvet:ignore <analyzer> <reason>
//
// where a non-empty reason is mandatory — an ignore without one is
// itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It is the stdlib-only
// analogue of analysis.Analyzer from golang.org/x/tools.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //zkvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// encodes, shown by `zkvet -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full zkvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Release,
		NoRawGo,
		ErrorPath,
	}
}

// Run executes the analyzers over one loaded package, applies
// //zkvet:ignore suppressions, and returns the surviving diagnostics
// sorted by position. Malformed directives (empty reason, unknown
// analyzer name) are themselves returned as diagnostics, so a
// suppression can never silently rot.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}

	ignores, bad := collectIgnores(pkg, analyzerNames(analyzers))
	out := bad
	for _, d := range raw {
		if !ignores.matches(d) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

func analyzerNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}
