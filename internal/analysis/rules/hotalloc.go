package rules

import (
	"pbsim/internal/analysis"
)

// HotAlloc is the static twin of perf_test.go's AllocsPerRun pins: a
// function whose doc comment carries //pbcheck:hotpath must be
// provably free of steady-state heap allocations, transitively
// through every call it can reach. The benchmark pins catch a
// regression after it lands and only on the paths the benchmark
// drives; this rule catches it at lint time on every path, including
// the ones a workload happens not to exercise.
//
// "Allocates" is the fact engine's steady-state model (facts.go):
// make/new, escaping composite literals, growing appends (the
// self-append reuse idiom x = append(x, ...) is amortized-zero and
// allowed), closure capture, go statements, interface boxing
// conversions, string concatenation/conversion, and fmt calls. A hot
// function calling code the engine cannot see (function values,
// foreign interfaces, non-whitelisted foreign packages) is also a
// finding: a 0-alloc claim that cannot be proved is not a claim.
var HotAlloc = &analysis.Analyzer{
	Name: analysis.RuleHotAlloc,
	Doc:  "functions marked //pbcheck:hotpath must be transitively free of steady-state heap allocations (static twin of the AllocsPerRun benchmark pins)",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) {
	for _, fi := range pass.Facts.Funcs(pass.Path()) {
		if !fi.Hot {
			continue
		}
		facts := fi.Facts()
		if facts.Has(analysis.FactAllocates) {
			pass.Reportf(fi.Decl.Name.Pos(),
				"hot-path function %s allocates on the steady-state path: %s; hoist the allocation out of the loop or restructure (see perf_test.go's 0-alloc pins)",
				fi.DisplayName(), fi.Why(analysis.FactAllocates))
		}
		if facts.Has(analysis.FactUnknownCallee) {
			pass.Reportf(fi.Decl.Name.Pos(),
				"hot-path function %s cannot be proved allocation-free: %s; keep hot paths on static module calls so the 0-alloc invariant stays checkable",
				fi.DisplayName(), fi.Why(analysis.FactUnknownCallee))
		}
	}
	for _, pos := range pass.Facts.Orphans(pass.Path(), analysis.HotpathMarker) {
		pass.Reportf(pos, "//pbcheck:hotpath is not attached to a function declaration; put it in the function's doc comment")
	}
}
