package analysis

import (
	"go/ast"
	"strings"
)

// NoRawGo keeps internal/parallel the single concurrency entry point of
// the prover stack. The worker-budget model — one budget chosen at the
// session API, split across nested kernels, never oversubscribed — only
// holds if nobody spawns goroutines behind the engine's back: a raw
// `go` statement is invisible to the budget it should share, and a
// spawn inside a loop is unbounded by anything at all.
//
// Every `go` statement outside internal/parallel is therefore a
// finding. The handful of legitimate sites (the daemon's HTTP listener
// lifecycle, the service's per-job goroutine, the cluster's heartbeat,
// monitor and lease-attempt goroutines) carry //zkvet:ignore with the
// reason recorded. BatchProve needs none: it runs on parallel.Run.
// See DESIGN.md §6.4.
var NoRawGo = &Analyzer{
	Name: "norawgo",
	Doc:  "flag raw go statements outside internal/parallel (the worker-budget model's single entry point)",
	Run:  runNoRawGo,
}

func runNoRawGo(pass *Pass) error {
	path := pass.Pkg.Path()
	if path == parallelPath || (!strings.HasPrefix(path, Module+"/") && path != Module) {
		return nil
	}
	for _, f := range pass.Files {
		inspectWithLoops(pass, f)
	}
	return nil
}

// inspectWithLoops reports go statements, distinguishing ones lexically
// inside a loop of the same function body (unbounded spawns) from
// standalone ones. The stack mirrors ast.Inspect's traversal: every
// non-nil visit pushes a frame, every post-order nil visit pops one.
func inspectWithLoops(pass *Pass, root ast.Node) {
	type frame struct {
		isLoop bool
		isFunc bool
	}
	var stack []frame
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		var fr frame
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			fr.isLoop = true
		case *ast.FuncLit, *ast.FuncDecl:
			fr.isFunc = true
		case *ast.GoStmt:
			inLoop := false
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].isFunc {
					break
				}
				if stack[i].isLoop {
					inLoop = true
					break
				}
			}
			if inLoop {
				pass.Reportf(n.Pos(), "goroutine spawned in a loop outside internal/parallel: unbounded concurrency escapes the worker-budget model; use parallel.For/Run")
			} else {
				pass.Reportf(n.Pos(), "raw go statement outside internal/parallel: route concurrency through the engine so one worker budget governs the proof")
			}
		}
		stack = append(stack, fr)
		return true
	})
}
