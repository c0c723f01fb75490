package rules

import (
	"pbsim/internal/analysis"
)

// Purity is the static form of the ground-truth contract: a function
// whose doc comment carries //pbcheck:pure must be provably
// side-effect-free and deterministic — the property that lets
// internal/truth promise "same corner, same value, any evaluation
// order, any worker count". The assessment harness leans on that
// promise for every cross-process comparison; a mutation hiding in a
// surface evaluator would corrupt exactly the experiments the harness
// exists to referee, and dynamically only when two evaluation orders
// actually collide.
//
// Three facts break the proof, each reported with the engine's
// name-qualified why-chain:
//
//   - FactWritesState: the function (or anything it transitively
//     calls) mutates state outside its frame — a package-level
//     variable, memory behind a pointer receiver/parameter, aliased
//     heap, or a channel operation. Writes into memory the function
//     provably allocated itself are allowed (facts.go's owned-locals
//     analysis).
//   - FactNondet: it reads ambient state (wall clock, environment,
//     the global rand source), so two calls may disagree.
//   - FactUnknownCallee: it calls code the engine cannot see through,
//     so the claim cannot be proved. A purity claim that cannot be
//     proved is not a claim — same bias as hotalloc.
var Purity = &analysis.Analyzer{
	Name: analysis.RulePurity,
	Doc:  "functions marked //pbcheck:pure must be provably side-effect-free and deterministic, transitively through every call (static twin of the ground-truth evaluation contract)",
	Run:  runPurity,
}

func runPurity(pass *analysis.Pass) {
	for _, fi := range pass.Facts.Funcs(pass.Path()) {
		if !fi.Pure {
			continue
		}
		facts := fi.Facts()
		if facts.Has(analysis.FactWritesState) {
			pass.Reportf(fi.Decl.Name.Pos(),
				"pure-marked function %s mutates state outside its frame: %s; drop the write or the //pbcheck:pure marker",
				fi.DisplayName(), fi.Why(analysis.FactWritesState))
		}
		if facts.Has(analysis.FactNondet) {
			pass.Reportf(fi.Decl.Name.Pos(),
				"pure-marked function %s reads ambient state: %s; a pure function must compute from its arguments alone",
				fi.DisplayName(), fi.Why(analysis.FactNondet))
		}
		if facts.Has(analysis.FactUnknownCallee) {
			pass.Reportf(fi.Decl.Name.Pos(),
				"pure-marked function %s cannot be proved pure: %s; keep pure functions on static module calls so the proof stays checkable",
				fi.DisplayName(), fi.Why(analysis.FactUnknownCallee))
		}
	}
	for _, pos := range pass.Facts.Orphans(pass.Path(), analysis.PureMarker) {
		pass.Reportf(pos, "//pbcheck:pure is not attached to a function declaration; put it in the function's doc comment")
	}
}
