package analysis

import (
	"go/ast"
	"go/types"
)

// Module is the module path every path-scoped rule below is anchored to.
const Module = "zkphire"

// ProofPathPackages are the packages whose code runs between transcript
// initialization and the final proof bytes. Anything nondeterministic
// here — map iteration order, wall-clock reads, scheduler-dependent
// select — can change proof bytes across runs and break the golden
// sha256 pins (DESIGN.md §6.1).
var ProofPathPackages = map[string]bool{
	Module + "/internal/ff":         true,
	Module + "/internal/fp":         true,
	Module + "/internal/curve":      true,
	Module + "/internal/mle":        true,
	Module + "/internal/pcs":        true,
	Module + "/internal/perm":       true,
	Module + "/internal/poly":       true,
	Module + "/internal/sumcheck":   true,
	Module + "/internal/transcript": true,
	Module + "/internal/hyperplonk": true,
}

// calleeObj resolves the object a call expression invokes: a package
// function, a method, or nil for indirect calls (function values,
// conversions, builtins without objects).
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// objIsFunc reports whether obj is the function or method with the
// given package path and name. Methods match on (pkgPath, recvName,
// name); package functions on (pkgPath, "", name).
func objIsFunc(obj types.Object, pkgPath, recvName, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	recv := fn.Signature().Recv()
	if recvName == "" {
		return recv == nil
	}
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == recvName
}

// objPkgPath returns the path of the object's defining package, or "".
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isBuiltin reports whether id resolves to a language builtin (or to
// nothing at all, which only happens for builtins under partial info).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	obj, ok := info.Uses[id]
	if !ok || obj == nil {
		return true
	}
	_, builtin := obj.(*types.Builtin)
	return builtin
}
