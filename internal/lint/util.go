package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the *types.Func a call expression statically
// invokes — a package-level function, a method (through any embedding),
// or nil for dynamic calls, conversions, and builtins. Mirrors
// x/tools typeutil.Callee.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.Func
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or ""
// for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvTypeName returns the named type of fn's receiver (with pointers
// dereferenced), or "" for package-level functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedName(sig.Recv().Type())
}

// namedName returns the bare name of t's named type, dereferencing one
// pointer level, or "".
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// namedPkgPath returns the import path of t's named type's package,
// dereferencing one pointer level, or "".
func namedPkgPath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

// lastSegment returns the final slash-separated element of an import
// path: the conventional package name.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pathHasSegment reports whether any slash-separated element of path
// equals seg — used to scope analyzers to actor-ish / transport-ish
// packages so fixtures under fake paths match the same way real ones do.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Name() == name && recvTypeName(fn) == "" &&
		funcPkgPath(fn) == pkgPath
}
