package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// parallelPath is the package that owns the scratch arenas.
const parallelPath = Module + "/internal/parallel"

// A poolFunc names a function ("" receiver) or method of internal/parallel.
type poolFunc struct{ recv, name string }

func (f poolFunc) String() string {
	if f.recv == "" {
		return "parallel." + f.name
	}
	return f.recv + "." + f.name
}

// releaseOf pairs each acquire entry point of the arena pool with the
// call that returns what it hands out.
var releaseOf = map[poolFunc]poolFunc{
	{"", "GetScratch"}: {"", "PutScratch"},
	{"Arena", "Get"}:   {"Arena", "Put"},
}

// Release enforces one rule for the scratch arenas: whatever is taken
// from one (parallel.GetScratch, Arena.Get) is returned by a defer in
// the function that declares the variable holding it — `defer
// pool.Put(buf)` after the acquire, or a deferred func literal that
// releases it (the form for a lazily taken buffer; Put(nil) is a no-op)
// — or it is handed off by storing it into a field or index expression.
// Anything else is a finding: an inline release, no release, a result
// discarded into _ or never assigned. A deferred release runs on every
// exit, early returns and panics included, so no path needs simulating.
//
// The same panic argument fixes the one recover() in the module at
// service.runGuarded, the job boundary: a recover anywhere else swallows
// a panic before the boundary's accounting runs. internal/parallel
// implements the pool and is exempt from the release rule, not from the
// recover rule. See DESIGN.md §6.3.
var Release = &Analyzer{
	Name: "release",
	Doc:  "flag arena buffers not released by a defer (or handed off to a field/index), and recover() outside service.runGuarded",
	Run:  runRelease,
}

func runRelease(pass *Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, Module+"/") && path != Module {
		return nil
	}
	c := &releaseCheck{pass: pass, declFn: map[types.Object]ast.Node{}, deferred: map[types.Object][]deferral{},
		handed: map[types.Object]bool{}, assigned: map[*ast.CallExpr]bool{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			checkRecover(pass, decl)
			if path != parallelPath {
				c.walk(decl)
			}
		}
	}
	c.report()
	return nil
}

func checkRecover(pass *Pass, decl ast.Decl) {
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "runGuarded" && pass.Pkg.Path() == servicePath {
		return
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" && isBuiltin(pass.Info, id) {
				pass.Reportf(call.Pos(), "recover() outside the designated job boundary (%s.runGuarded): a stray recover swallows the panic before the boundary's accounting runs; let it propagate", servicePath)
			}
		}
		return true
	})
}

// releaseCheck collects, over one package, each acquire, each deferred
// release and each hand-off, keyed by the variable involved.
type releaseCheck struct {
	pass     *Pass
	declFn   map[types.Object]ast.Node // the function declaring each variable
	deferred map[types.Object][]deferral
	handed   map[types.Object]bool
	assigned map[*ast.CallExpr]bool
	acquired []acquire
}

type acquire struct {
	call *ast.CallExpr
	fn   poolFunc
	obj  types.Object
}

type deferral struct {
	fn      ast.Node // the function whose exit runs it
	release poolFunc
	pos     token.Pos
	lit     bool // inside a deferred func literal: sees the variable's final value
}

// walk visits fn; every function literal below it is walked as a
// function of its own.
func (c *releaseCheck) walk(fn ast.Node) {
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != fn {
				c.walk(n)
				return false
			}
		case *ast.Ident:
			if obj := c.pass.Info.Defs[n]; obj != nil {
				c.declFn[obj] = fn
			}
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						c.noteRelease(call, deferral{fn: fn, pos: n.Pos(), lit: true})
					}
					return true
				})
			} else {
				c.noteRelease(n.Call, deferral{fn: fn, pos: n.Pos()})
			}
		case *ast.AssignStmt:
			c.assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			c.assign(lhs, n.Values)
		case *ast.CallExpr:
			if f := c.poolCall(n); releaseOf[f] != (poolFunc{}) && !c.assigned[n] {
				c.pass.Reportf(n.Pos(), "result of %s is not assigned to a local, field or index, so nothing can release it", f)
			}
		}
		return true
	})
}

// assign records acquires into locals and hand-offs into fields/indexes.
func (c *releaseCheck) assign(lhs, rhs []ast.Expr) {
	info := c.pass.Info
	for i, r := range rhs {
		if len(lhs) != len(rhs) {
			continue // every acquire returns one value
		}
		l := ast.Unparen(lhs[i])
		handOff := false
		switch l.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			handOff = true
		}
		switch r := ast.Unparen(r).(type) {
		case *ast.Ident:
			if handOff {
				c.handed[info.Uses[r]] = true
			}
		case *ast.CallExpr:
			f := c.poolCall(r)
			if releaseOf[f] == (poolFunc{}) {
				continue
			}
			c.assigned[r] = true
			id, isIdent := l.(*ast.Ident)
			switch {
			case handOff:
			case !isIdent || id.Name == "_":
				c.pass.Reportf(r.Pos(), "result of %s is discarded: it can never be released", f)
			default:
				c.acquired = append(c.acquired, acquire{r, f, info.ObjectOf(id)})
			}
		}
	}
}

// noteRelease records d against the variable call releases, if it is a
// release: pool.Put(v).
func (c *releaseCheck) noteRelease(call *ast.CallExpr, d deferral) {
	if d.release = c.poolCall(call); d.release == (poolFunc{}) {
		return
	}
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			obj := c.pass.Info.Uses[id]
			c.deferred[obj] = append(c.deferred[obj], d)
		}
	}
}

// report flags every acquire that is neither handed off nor matched by a
// deferred release in the variable's own function. A direct defer counts
// only after the acquire: its argument is evaluated when it is deferred.
func (c *releaseCheck) report() {
	for _, a := range c.acquired {
		released := c.handed[a.obj]
		for _, d := range c.deferred[a.obj] {
			if d.release == releaseOf[a.fn] && d.fn == c.declFn[a.obj] && (d.lit || d.pos > a.call.Pos()) {
				released = true
			}
		}
		if !released {
			c.pass.Reportf(a.call.Pos(), "%s from %s is neither released by a deferred %s in the function that declares it nor stored into a field or index: an early return or a panic strands it", a.obj.Name(), a.fn, releaseOf[a.fn])
		}
	}
}

// poolCall returns the pool entry point that call invokes, or the zero
// poolFunc.
func (c *releaseCheck) poolCall(call *ast.CallExpr) poolFunc {
	obj := calleeObj(c.pass.Info, call)
	for acq, rel := range releaseOf {
		for _, f := range [2]poolFunc{acq, rel} {
			if objIsFunc(obj, parallelPath, f.recv, f.name) {
				return f
			}
		}
	}
	return poolFunc{}
}
