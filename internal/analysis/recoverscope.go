package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// recoverBoundary is the one function allowed to call recover(): the
// queue's job boundary in the service layer.
const recoverBoundary = "runGuarded"

// Recoverscope encodes the fault-isolation contract PR 9 introduced:
//
//  1. recover() is allowed ONLY inside service.runGuarded, the designated
//     job boundary. A recover anywhere else swallows a panic before the
//     boundary's accounting runs — the worker lease stays leased, arena
//     scratch stays checked out, and the panic metric never increments.
//     The whole point of routing every job through one guarded function
//     is that there is exactly one place where "job died" is turned into
//     a structured error; stray recovers silently fork that policy.
//
//  2. A lease acquired from parallel.Budget (Acquire, TryAcquire) must
//     be released on every exit path, including panicking ones: the
//     acquiring function either runs `defer lease.Release()` or
//     provably hands the lease away (returns
//     it, passes it to a call, or uses lease.Release as a value). A bare
//     inline Release is a finding even though it "works" on the happy
//     path — a panic between Acquire and Release leaks the workers and
//     permanently shrinks the machine. internal/parallel itself is
//     exempt (it implements the lease).
//
// See DESIGN.md §9.
var Recoverscope = &Analyzer{
	Name: "recoverscope",
	Doc:  "flag recover() outside the service job boundary and budget leases without a deferred (or escaping) Release",
	Run:  runRecoverscope,
}

func runRecoverscope(pass *Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, Module+"/") && path != Module {
		return nil
	}
	for _, f := range pass.Files {
		parents := parentMap(f)
		checkRecoverCalls(pass, f, parents)
		if path != parallelPath {
			checkLeaseDiscipline(pass, f, parents)
		}
	}
	return nil
}

// parentMap records each node's syntactic parent for upward walks.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFuncDecl walks up to the named function containing n.
func enclosingFuncDecl(parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncDecl {
	for p := parents[n]; p != nil; p = parents[p] {
		if fd, ok := p.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// enclosingFunc walks up to the innermost function (literal or declared)
// containing n — the scope a defer registered at n would run in.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return p
		}
	}
	return nil
}

func checkRecoverCalls(pass *Pass, f *ast.File, parents map[ast.Node]ast.Node) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "recover" || !isBuiltin(pass.Info, id) {
			return true
		}
		fd := enclosingFuncDecl(parents, call)
		if pass.Pkg.Path() == servicePath && fd != nil && fd.Name.Name == recoverBoundary {
			return true
		}
		pass.Reportf(call.Pos(), "recover() outside the designated job boundary (%s.%s): a stray recover swallows the panic before the boundary releases leases and scratch; let it propagate", servicePath, recoverBoundary)
		return true
	})
}

// budgetAcquire returns the method name when call is one of
// parallel.Budget's lease constructors.
func budgetAcquire(pass *Pass, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(pass.Info, call)
	for _, name := range [...]string{"Acquire", "TryAcquire"} {
		if objIsFunc(obj, parallelPath, "Budget", name) {
			return name, true
		}
	}
	return "", false
}

func checkLeaseDiscipline(pass *Pass, f *ast.File, parents map[ast.Node]ast.Node) {
	ast.Inspect(f, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := budgetAcquire(pass, call)
		if !ok {
			return true
		}
		leaseID, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if leaseID.Name == "_" {
			pass.Reportf(assign.Pos(), "lease from Budget.%s is assigned to _: it can never be released and permanently shrinks the worker budget", method)
			return true
		}
		obj := pass.Info.Defs[leaseID]
		if obj == nil {
			obj = pass.Info.Uses[leaseID]
		}
		if obj == nil {
			return true
		}
		scope := enclosingFunc(parents, assign)
		if scope == nil {
			return true
		}
		verdict := auditLeaseUses(pass, scope, parents, assign, obj)
		switch verdict {
		case leaseDeferred, leaseEscapes:
		case leaseInlineReleased:
			pass.Reportf(assign.Pos(), "lease from Budget.%s is released without defer: a panic between the acquire and the Release leaks the workers; use `defer %s.Release()` (Release is idempotent)", method, leaseID.Name)
		default:
			pass.Reportf(assign.Pos(), "lease from Budget.%s is never released in this function: every exit path, including a panic, must run Release; add `defer %s.Release()` or hand the lease off", method, leaseID.Name)
		}
		return true
	})
}

type leaseVerdict int

const (
	leaseLeaked leaseVerdict = iota
	leaseInlineReleased
	leaseDeferred
	leaseEscapes
)

// auditLeaseUses classifies every use of the lease variable inside its
// acquiring function. Precedence: a deferred Release or an escape (the
// lease handed to code that now owns it) satisfies the contract; an
// inline Release alone, or no release at all, is a leak on panic paths.
func auditLeaseUses(pass *Pass, scope ast.Node, parents map[ast.Node]ast.Node, acquire *ast.AssignStmt, obj types.Object) leaseVerdict {
	var body *ast.BlockStmt
	switch s := scope.(type) {
	case *ast.FuncDecl:
		body = s.Body
	case *ast.FuncLit:
		body = s.Body
	}
	if body == nil {
		return leaseLeaked
	}

	// Function literals the scope defers directly: a lease.Release() inside
	// `defer func() { ... }()` is as panic-safe as `defer lease.Release()`.
	deferredLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && enclosingFunc(parents, d) == scope {
			if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
				deferredLits[lit] = true
			}
		}
		return true
	})

	verdict := leaseLeaked
	upgrade := func(v leaseVerdict) {
		if v > verdict {
			verdict = v
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != obj {
			return true
		}
		// Where does a defer registered here run? In the innermost function.
		useScope := enclosingFunc(parents, id)

		parent := parents[id]
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			if p.X != id {
				return true // lease used as a field name: not our variable
			}
			if p.Sel.Name != "Release" {
				return true // lease.Workers() and friends: neutral reads
			}
			// lease.Release — called, deferred, or taken as a value?
			if call, ok := parents[p].(*ast.CallExpr); ok && call.Fun == p {
				switch {
				case isDeferCall(parents, call):
					if useScope == scope {
						upgrade(leaseDeferred)
					} else if lit, ok := useScope.(*ast.FuncLit); ok && deferredLits[lit] {
						upgrade(leaseDeferred)
					} else {
						// Released inside some nested closure the scope hands
						// elsewhere: ownership moved with the closure.
						upgrade(leaseEscapes)
					}
				case useScope != scope:
					upgrade(leaseEscapes)
				default:
					upgrade(leaseInlineReleased)
				}
				return true
			}
			// Method value: `return lease.Release` / passing it on — the
			// receiver of the value now owns the release.
			upgrade(leaseEscapes)
		case *ast.CallExpr:
			for _, a := range p.Args {
				if a == id {
					upgrade(leaseEscapes) // handed to a call that now owns it
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			upgrade(leaseEscapes)
		case *ast.UnaryExpr:
			upgrade(leaseEscapes) // &lease or <-: aliased beyond our sight
		case *ast.AssignStmt:
			if p == acquire {
				return true
			}
			for _, r := range p.Rhs {
				if r == id {
					upgrade(leaseEscapes) // copied into another variable
				}
			}
		default:
			if useScope != scope {
				// Captured by a closure that does something else with it:
				// the closure's owner decides the lease's fate.
				upgrade(leaseEscapes)
			}
		}
		return true
	})
	return verdict
}

// isDeferCall reports whether call is the immediate call of a DeferStmt.
func isDeferCall(parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	d, ok := parents[call].(*ast.DeferStmt)
	return ok && d.Call == call
}
