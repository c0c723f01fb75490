package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pbsim/internal/analysis"
)

// deterministicSegments names the packages whose outputs must be pure
// functions of their configuration: every package whose import path
// contains one of these segments is held to the determinism
// invariant. These are the packages whose results flow into effects,
// ranks, and sum-of-ranks — the quantities the paper's Tables 9-12
// (and PR 1/PR 2's bit-identity guarantees) are built on.
var deterministicSegments = map[string]bool{
	"pb":       true,
	"stats":    true,
	"sim":      true,
	"trace":    true,
	"cluster":  true,
	"tables":   true,
	"truth":    true,
	"assess":   true,
	"sampling": true,
}

// randConstructors are the math/rand functions that build an
// explicitly seeded generator rather than touching the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand, so it is bound to a seeded source
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Determinism forbids the ambient-state reads that would make a
// simulation row depend on anything but its configuration: wall-clock
// reads, the globally seeded math/rand source, environment variables,
// and map iteration feeding order-dependent output.
var Determinism = &analysis.Analyzer{
	Name: analysis.RuleDeterminism,
	Doc:  "forbid wall-clock, global math/rand, env reads, and map-order-dependent output in the deterministic packages (pb, stats, sim, trace, cluster, tables)",
	Run:  runDeterminism,
}

func runDeterminism(pass *analysis.Pass) {
	if !pathHasSegment(pass.Path(), deterministicSegments) {
		return
	}
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				checkForbiddenObject(pass, n)
			case *ast.CallExpr:
				checkNondetCallee(pass, n)
			case *ast.BlockStmt:
				checkStmtList(pass, info, n.List)
			case *ast.CaseClause:
				checkStmtList(pass, info, n.Body)
			case *ast.CommClause:
				checkStmtList(pass, info, n.Body)
			}
			return true
		})
	}
}

// checkNondetCallee is the interprocedural half: a call to a module
// function that transitively reaches a nondeterminism sink (per the
// fact engine's fixpoint) taints this package just as a direct sink
// would. The call site is only reported when the callee will not
// report at its own definition — i.e. the callee lives outside the
// deterministic packages, or its package was loaded only as a
// dependency — so each laundered sink surfaces exactly once.
func checkNondetCallee(pass *analysis.Pass, call *ast.CallExpr) {
	fi := pass.Facts.Lookup(calleeObject(pass.TypesInfo(), call))
	if fi == nil || !fi.Facts().Has(analysis.FactNondet) {
		return
	}
	if pathHasSegment(fi.Pkg.Path, deterministicSegments) && pass.Facts.IsAnalyzed(fi.Pkg.Path) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s reaches a nondeterminism source (%s → %s); deterministic packages must compute from configuration and simulated time only",
		fi.DisplayName(), fi.DisplayName(), fi.Why(analysis.FactNondet))
}

// checkStmtList examines each range statement in a statement list
// along with the statements that follow it (so a post-loop sort can
// absolve a key-collecting append).
func checkStmtList(pass *analysis.Pass, info *types.Info, list []ast.Stmt) {
	for i, stmt := range list {
		if ls, ok := stmt.(*ast.LabeledStmt); ok {
			stmt = ls.Stmt
		}
		if rs, ok := stmt.(*ast.RangeStmt); ok {
			checkMapRange(pass, info, rs, list[i+1:])
		}
	}
}

// checkForbiddenObject flags uses of the nondeterminism sources. It
// inspects identifiers (a selector's Sel is itself an identifier), so
// aliased and dot imports are resolved through the type checker
// rather than by matching source text.
func checkForbiddenObject(pass *analysis.Pass, id *ast.Ident) {
	obj := pass.TypesInfo().Uses[id]
	if obj == nil {
		return
	}
	switch objPkgPath(obj) {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(id.Pos(), "time.%s reads the wall clock; deterministic packages must compute from configuration and simulated time only", obj.Name())
		}
	case "os":
		switch obj.Name() {
		case "Getenv", "LookupEnv", "Environ", "ExpandEnv":
			pass.Reportf(id.Pos(), "os.%s reads the process environment; thread configuration in explicitly so a row is a pure function of its config", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions touch the global source; methods
		// on *rand.Rand (or a Source) are bound to whatever seed built
		// them, which is exactly the approved pattern.
		fn, isFunc := obj.(*types.Func)
		if isFunc && fn.Type().(*types.Signature).Recv() == nil && !randConstructors[obj.Name()] {
			pass.Reportf(id.Pos(), "rand.%s draws from the global math/rand source; use an explicitly seeded *rand.Rand so replays are bit-identical", obj.Name())
		}
	}
}

// checkMapRange flags `for ... range m` over a map when the loop body
// feeds order-dependent output: appending to a slice declared outside
// the loop, accumulating into an outer float (float addition is not
// associative, so summation order changes the bits), or printing.
// Go randomizes map iteration order per run, so any of these makes
// the result nondeterministic.
//
// The collect-then-sort idiom is recognized: an append target that a
// later statement in the same block passes to a sort.* or
// slices.Sort* call is deterministic by construction and not flagged.
func checkMapRange(pass *analysis.Pass, info *types.Info, rs *ast.RangeStmt, rest []ast.Stmt) {
	t := info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, info, rs, n, rest)
		case *ast.CallExpr:
			if obj := calleeObject(info, n); objPkgPath(obj) == "fmt" &&
				(strings.HasPrefix(obj.Name(), "Print") || strings.HasPrefix(obj.Name(), "Fprint")) {
				pass.Reportf(n.Pos(), "printing inside a map-range loop emits in randomized map order; iterate sorted keys instead")
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *analysis.Pass, info *types.Info, rs *ast.RangeStmt, as *ast.AssignStmt, rest []ast.Stmt) {
	outer := func(e ast.Expr) (*ast.Ident, types.Object, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, nil, false
		}
		obj := info.ObjectOf(id)
		return id, obj, obj != nil && obj.Pos().IsValid() && obj.Pos() < rs.Pos()
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if id, _, isOuter := outer(as.Lhs[0]); isOuter && isFloat(info.TypeOf(as.Lhs[0])) {
			pass.Reportf(as.Pos(), "accumulating float %s across a map range depends on randomized iteration order (float math is not associative); iterate sorted keys", id.Name)
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "append" {
				continue
			} else if _, isBuiltin := info.Uses[fun].(*types.Builtin); !isBuiltin {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			if id, obj, isOuter := outer(as.Lhs[i]); isOuter && !sortedAfter(info, obj, rest) {
				pass.Reportf(as.Pos(), "appending to %s inside a map range produces randomized element order; sort it after the loop or iterate sorted keys", id.Name)
			}
		}
	}
}

// sortedAfter reports whether any statement after the loop passes obj
// into a sort.* or slices.Sort* call, which restores a deterministic
// order.
func sortedAfter(info *types.Info, obj types.Object, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			callee := calleeObject(info, call)
			pkg := objPkgPath(callee)
			if pkg != "sort" && !(pkg == "slices" && strings.HasPrefix(callee.Name(), "Sort")) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
