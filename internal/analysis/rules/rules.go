// Package rules holds the project-specific analyzers that encode this
// repository's reproducibility invariants: determinism of the result
// packages, tolerance-based float comparison, error discipline (call
// sites and paths), context propagation, allocation-free hot paths,
// goroutine termination, and provably pure ground-truth functions.
// Each rule documents the invariant it protects, and each is kept
// because it catches a seeded defect no other gate catches; see the
// README section "Static analysis" and the corpus in EXPERIMENTS.md.
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"pbsim/internal/analysis"
)

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		FloatEq,
		ErrDiscard,
		CtxFlow,
		HotAlloc,
		LeakyGo,
		Purity,
		ErrFlow,
	}
}

// pathHasSegment reports whether any slash-separated segment of an
// import path equals one of the names.
func pathHasSegment(path string, names map[string]bool) bool {
	for _, seg := range strings.Split(path, "/") {
		if names[seg] {
			return true
		}
	}
	return false
}

// calleeObject resolves the object a call expression invokes: a
// package-level function, a method, or a builtin. Returns nil for
// indirect calls through function values.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// objPkgPath returns the import path of the package obj belongs to,
// or "" for builtins and universe objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isErrorType reports whether t is exactly the built-in error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// errorResults returns, for a call expression, the indices of its
// results whose type is error (nil when the callee returns none).
func errorResults(info *types.Info, call *ast.CallExpr) []int {
	t := info.TypeOf(call)
	if t == nil {
		return nil
	}
	if tuple, ok := t.(*types.Tuple); ok {
		var idx []int
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	if isErrorType(t) {
		return []int{0}
	}
	return nil
}

// isFloat reports whether t's underlying type is float32 or float64.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
